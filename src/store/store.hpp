#pragma once
// store::SolutionStore — the persistent tier under the serving cache: a
// content-addressed, crash-safe key/value store for solved games. Keys are
// the full GameKey bytes (the 64-bit digest addresses the in-memory index;
// the blob is compared on every hit, so a digest collision can never serve a
// wrong report). Values are opaque byte strings — the serve layer stores the
// canonical report JSON, whose round-trip is lossless, so a disk hit replays
// byte-identically.
//
// On disk the store is a directory of append-only log segments (format in
// log.hpp). Mutations are appends: a put writes a new record (superseding
// any older record with the same key), a budget eviction writes a tombstone.
// open() rebuilds the index by scanning every segment in id order —
// newest-wins — truncating a torn tail (crash mid-append) and skipping
// CRC-corrupt records; the intact remainder stays servable. compact()
// rewrites the live records into fresh segments and deletes the old ones
// (oldest first, so a crash mid-compact can only leave duplicates, never
// resurrect a tombstoned key), reclaiming superseded/evicted space; it also
// runs automatically once dead bytes pass half the budget.
//
// Values go through the block codec (codec.hpp) on the way in: compressed
// when that wins, stored raw when it does not — the QATzip-style transparent
// fallback. The record header carries the codec tag and decoded size, so
// reads never guess.
//
// Thread-safe behind one internal mutex: the gateway calls it from event-loop
// threads under its own gate, and nash_store / tests call it directly.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "store/log.hpp"

namespace cnash::store {

/// Unrecoverable environment failures (directory not creatable, I/O errors).
/// Data-level damage is NEVER an exception — it is repaired or skipped on
/// open and reported in the stats/fsck counters.
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& message)
      : std::runtime_error("store: " + message) {}
};

struct StoreOptions {
  /// Budget over live record bytes on disk (headers + keys + stored values).
  /// Exceeding it evicts oldest-written entries via tombstones.
  std::size_t byte_budget = 256u << 20;
  /// Rotate the active segment once it grows past this.
  std::size_t segment_bytes = 8u << 20;
  /// Compact automatically when dead (superseded/evicted/tombstone) bytes
  /// exceed half the budget.
  bool auto_compact = true;
};

struct StoreStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t appends = 0;      // put records written (this process)
  std::size_t tombstones = 0;   // eviction records written (this process)
  std::size_t evictions = 0;    // entries dropped for the byte budget
  std::size_t oversize_rejects = 0;  // puts larger than the whole budget
  std::size_t compactions = 0;
  std::size_t entries = 0;      // live keys
  std::size_t segments = 0;
  std::size_t live_raw_bytes = 0;     // live values before the codec
  std::size_t live_value_bytes = 0;   // live values after the codec
  std::size_t live_stored_bytes = 0;  // live record bytes on disk (hdr+key+value)
  std::size_t dead_stored_bytes = 0;  // awaiting compaction
  std::size_t compressed_records = 0;  // live records that took the codec
  std::size_t stored_records = 0;      // live records stored raw
  std::size_t corrupt_records_skipped = 0;  // found by the last open()
  std::size_t torn_tail_truncations = 0;    // repaired by the last open()
  std::size_t byte_budget = 0;

  /// Live value bytes before vs after the codec; 1.0 when empty. Record
  /// framing (header + key) is deliberately excluded — it is paid either
  /// way, so including it would punish the codec for key size.
  double compression_ratio() const {
    const std::size_t stored = live_value_bytes;
    return stored == 0 ? 1.0
                       : static_cast<double>(live_raw_bytes) /
                             static_cast<double>(stored);
  }
};

/// Read-only integrity report (nash_store fsck; never modifies the files).
struct FsckReport {
  struct Segment {
    std::string file;
    bool header_ok = false;
    std::size_t file_bytes = 0;
    std::size_t records = 0;
    std::size_t torn_bytes = 0;
    std::size_t corrupt_bytes = 0;
    std::size_t corrupt_records = 0;
  };
  std::vector<Segment> segments;
  std::size_t live_entries = 0;  // after newest-wins replay
  std::size_t records = 0;
  std::size_t torn_segments = 0;
  std::size_t corrupt_records = 0;
  bool clean() const {
    if (torn_segments != 0 || corrupt_records != 0) return false;
    for (const Segment& s : segments)
      if (!s.header_ok) return false;
    return true;
  }
};

class SolutionStore {
 public:
  /// Opens (creating the directory if needed) and recovers: scans every
  /// segment, truncates torn tails, skips corrupt records, rebuilds the
  /// index. Throws StoreError only on environment failures.
  explicit SolutionStore(std::string dir, StoreOptions options = {});
  ~SolutionStore();
  SolutionStore(const SolutionStore&) = delete;
  SolutionStore& operator=(const SolutionStore&) = delete;

  /// Full-key lookup: digest addresses the index, the stored key bytes are
  /// compared against `key` before anything is served. Returns the decoded
  /// value bytes, or nullopt.
  std::optional<std::string> get(std::uint64_t digest, std::string_view key);

  /// Insert or supersede. The value is compressed when that wins. A record
  /// larger than the whole budget is rejected (oversize_rejects); otherwise
  /// oldest entries are evicted until the budget holds.
  void put(std::uint64_t digest, std::string_view key, std::string_view value);

  /// Rewrite live records into fresh segments, delete the old ones.
  void compact();

  /// fdatasync the active segment (appends are write()s — crash-consistent
  /// via recovery, durable only after a sync).
  void sync();

  StoreStats stats() const;
  const std::string& dir() const { return dir_; }

  /// Read-only scan of a store directory (works on a directory another
  /// process is serving from; sees whatever has been written so far).
  static FsckReport fsck(const std::string& dir);

 private:
  struct IndexEntry {
    std::uint64_t segment = 0;
    std::size_t offset = 0;  // of the record start
    RecordHeader header;
  };
  /// A record's address in log order: no two live records share one.
  struct RecordRef {
    std::uint64_t digest = 0;
    std::uint64_t segment = 0;
    std::size_t offset = 0;
  };
  using Index = std::unordered_multimap<std::uint64_t, IndexEntry>;

  void open_and_recover();
  int segment_fd(std::uint64_t id);
  int create_segment(std::uint64_t id);
  void append_active(std::string_view bytes);
  void rotate_if_needed(std::size_t incoming);
  std::string read_record_key(const IndexEntry& entry);
  std::string read_record_value(const IndexEntry& entry);  // decoded
  bool erase_live(std::uint64_t digest, std::string_view key,
                  IndexEntry* erased);
  Index::iterator find_live(const RecordRef& ref);  // index_.end() if stale
  void evict_until_within_budget();
  void maybe_auto_compact();
  void compact_locked();
  static std::size_t record_bytes(const RecordHeader& header) {
    return kRecordHeaderSize + header.key_len + header.value_len;
  }

  std::string dir_;
  StoreOptions options_;
  mutable std::mutex mutex_;

  /// digest → one node per live record (collisions resolved by reading and
  /// comparing the stored key bytes).
  Index index_;
  /// Live records in log order (oldest first) for budget eviction; a ref
  /// whose (segment, offset) no longer matches the index is stale and
  /// skipped lazily.
  std::deque<RecordRef> eviction_order_;
  /// Open fd per segment (readers pread these; the active one also appends).
  std::map<std::uint64_t, int> fds_;
  std::uint64_t active_segment_ = 0;
  std::size_t active_size_ = 0;
  std::uint64_t next_segment_id_ = 1;
  StoreStats stats_;
  std::string scratch_;  // codec/encode buffer reused across puts
};

}  // namespace cnash::store

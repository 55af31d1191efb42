#include "store/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "store/codec.hpp"

namespace cnash::store {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw StoreError(what + ": " + std::strerror(errno));
}

/// mkdir -p: create every missing component, tolerate the existing ones.
void make_dirs(const std::string& path) {
  std::string prefix;
  std::size_t pos = 0;
  while (pos < path.size()) {
    const std::size_t next = path.find('/', pos);
    const std::size_t end = next == std::string::npos ? path.size() : next;
    prefix.assign(path, 0, end);
    pos = end + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) < 0 && errno != EEXIST)
      sys_fail("mkdir " + prefix);
  }
}

/// All segment ids present in `dir`, sorted ascending.
std::vector<std::uint64_t> list_segments(const std::string& dir) {
  std::vector<std::uint64_t> ids;
  DIR* d = ::opendir(dir.c_str());
  if (!d) sys_fail("opendir " + dir);
  while (dirent* e = ::readdir(d)) {
    std::uint64_t id = 0;
    if (parse_segment_file_name(e->d_name, id)) ids.push_back(id);
  }
  ::closedir(d);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string read_whole_file(int fd, const std::string& name) {
  struct stat st;
  if (::fstat(fd, &st) < 0) sys_fail("fstat " + name);
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got = ::pread(fd, bytes.data() + done, bytes.size() - done,
                                static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      sys_fail("pread " + name);
    }
    if (got == 0) {  // concurrently truncated: scan what we have
      bytes.resize(done);
      break;
    }
    done += static_cast<std::size_t>(got);
  }
  return bytes;
}

}  // namespace

// ---- Open / recovery --------------------------------------------------------

SolutionStore::SolutionStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  stats_.byte_budget = options_.byte_budget;
  make_dirs(dir_);
  open_and_recover();
}

SolutionStore::~SolutionStore() {
  sync();
  for (auto& [id, fd] : fds_) ::close(fd);
}

int SolutionStore::segment_fd(std::uint64_t id) {
  const auto it = fds_.find(id);
  if (it != fds_.end()) return it->second;
  const std::string path = dir_ + "/" + segment_file_name(id);
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) sys_fail("open " + path);
  fds_[id] = fd;
  return fd;
}

int SolutionStore::create_segment(std::uint64_t id) {
  const std::string path = dir_ + "/" + segment_file_name(id);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) sys_fail("open " + path);
  fds_[id] = fd;
  std::size_t done = 0;
  while (done < kSegmentHeaderSize) {
    const ssize_t put = ::pwrite(
        fd, reinterpret_cast<const char*>(kSegmentHeader) + done,
        kSegmentHeaderSize - done, static_cast<off_t>(done));
    if (put < 0) {
      if (errno == EINTR) continue;
      sys_fail("pwrite " + path);
    }
    done += static_cast<std::size_t>(put);
  }
  return fd;
}

void SolutionStore::open_and_recover() {
  const std::vector<std::uint64_t> ids = list_segments(dir_);
  std::size_t total_payload_bytes = 0;  // segment bytes past the headers
  std::uint64_t max_seen_id = 0;

  for (const std::uint64_t id : ids) {
    max_seen_id = std::max(max_seen_id, id);
    const int fd = segment_fd(id);
    const std::string image = read_whole_file(fd, segment_file_name(id));
    SegmentScan scan = scan_segment(image);
    if (!scan.header_ok) {
      // A destroyed segment header: nothing in the file can be trusted.
      // Deregister it (it must never become the active segment — appends to
      // a headerless file would be unreadable on the next open) but leave
      // the bytes on disk for fsck to name.
      ::close(fd);
      fds_.erase(id);
      stats_.corrupt_records_skipped++;
      continue;
    }
    if (scan.torn_bytes > 0) {
      // Crash mid-append: amputate the torn tail so the next append starts
      // at a record boundary.
      const std::size_t keep = image.size() - scan.torn_bytes;
      const std::string path = dir_ + "/" + segment_file_name(id);
      if (::ftruncate(fd, static_cast<off_t>(keep)) < 0)
        sys_fail("ftruncate " + path);
      stats_.torn_tail_truncations++;
    }
    stats_.corrupt_records_skipped += scan.corrupt_records;
    total_payload_bytes +=
        image.size() - scan.torn_bytes - kSegmentHeaderSize;

    // Replay in log order: a later put supersedes, a tombstone kills.
    for (const ScannedRecord& rec : scan.records) {
      const std::string_view key(image.data() + rec.offset + kRecordHeaderSize,
                                 rec.header.key_len);
      IndexEntry erased;
      if (erase_live(rec.header.digest, key, &erased)) {
        stats_.live_stored_bytes -= record_bytes(erased.header);
        stats_.live_raw_bytes -= erased.header.raw_len;
        stats_.live_value_bytes -= erased.header.value_len;
        if (erased.header.codec == kCodecStored)
          stats_.stored_records--;
        else
          stats_.compressed_records--;
        stats_.entries--;
      }
      if (rec.header.flags == kRecordTombstone) continue;
      index_.emplace(rec.header.digest,
                     IndexEntry{id, rec.offset, rec.header});
      eviction_order_.push_back({rec.header.digest, id, rec.offset});
      stats_.live_stored_bytes += record_bytes(rec.header);
      stats_.live_raw_bytes += rec.header.raw_len;
      stats_.live_value_bytes += rec.header.value_len;
      if (rec.header.codec == kCodecStored)
        stats_.stored_records++;
      else
        stats_.compressed_records++;
      stats_.entries++;
    }
  }

  if (fds_.empty()) {
    active_segment_ = max_seen_id + 1;  // never clobber a rejected file
    create_segment(active_segment_);
    active_size_ = kSegmentHeaderSize;
    next_segment_id_ = active_segment_ + 1;
  } else {
    active_segment_ = fds_.rbegin()->first;
    struct stat st;
    if (::fstat(fds_.rbegin()->second, &st) < 0) sys_fail("fstat active");
    active_size_ = static_cast<std::size_t>(st.st_size);
    next_segment_id_ = std::max(active_segment_, max_seen_id) + 1;
  }
  // Whatever payload bytes the live records do not account for is dead
  // weight (superseded records, tombstones, corrupt stretches) that only
  // compaction reclaims.
  stats_.dead_stored_bytes = total_payload_bytes - stats_.live_stored_bytes;
  stats_.segments = fds_.size();
}

// ---- Appends ----------------------------------------------------------------

void SolutionStore::append_active(std::string_view bytes) {
  const int fd = fds_.at(active_segment_);
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t put = ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                                 static_cast<off_t>(active_size_ + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      sys_fail("pwrite " + segment_file_name(active_segment_));
    }
    done += static_cast<std::size_t>(put);
  }
  active_size_ += bytes.size();
}

void SolutionStore::rotate_if_needed(std::size_t incoming) {
  if (active_size_ <= kSegmentHeaderSize) return;  // never rotate when empty
  if (active_size_ + incoming <= options_.segment_bytes) return;
  const int fd = fds_.at(active_segment_);
  ::fdatasync(fd);  // a sealed segment is never written again
  active_segment_ = next_segment_id_++;
  create_segment(active_segment_);
  active_size_ = kSegmentHeaderSize;
  stats_.segments = fds_.size();
}

bool SolutionStore::erase_live(std::uint64_t digest, std::string_view key,
                               IndexEntry* erased) {
  for (auto [it, last] = index_.equal_range(digest); it != last; ++it) {
    if (it->second.header.key_len != key.size()) continue;
    if (read_record_key(it->second) != key) continue;
    *erased = it->second;
    index_.erase(it);
    return true;
  }
  return false;
}

SolutionStore::Index::iterator SolutionStore::find_live(const RecordRef& ref) {
  for (auto [it, last] = index_.equal_range(ref.digest); it != last; ++it)
    if (it->second.segment == ref.segment && it->second.offset == ref.offset)
      return it;
  return index_.end();
}

std::string SolutionStore::read_record_key(const IndexEntry& entry) {
  const int fd = fds_.at(entry.segment);
  std::string key(entry.header.key_len, '\0');
  std::size_t done = 0;
  const off_t base =
      static_cast<off_t>(entry.offset + kRecordHeaderSize);
  while (done < key.size()) {
    const ssize_t got =
        ::pread(fd, key.data() + done, key.size() - done,
                base + static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      sys_fail("pread key");
    }
    if (got == 0) throw StoreError("record key truncated under us");
    done += static_cast<std::size_t>(got);
  }
  return key;
}

std::string SolutionStore::read_record_value(const IndexEntry& entry) {
  const int fd = fds_.at(entry.segment);
  std::string stored(entry.header.value_len, '\0');
  std::size_t done = 0;
  const off_t base = static_cast<off_t>(entry.offset + kRecordHeaderSize +
                                        entry.header.key_len);
  while (done < stored.size()) {
    const ssize_t got = ::pread(fd, stored.data() + done, stored.size() - done,
                                base + static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      sys_fail("pread value");
    }
    if (got == 0) throw StoreError("record value truncated under us");
    done += static_cast<std::size_t>(got);
  }
  if (entry.header.codec == kCodecStored) return stored;
  if (entry.header.codec != kCodecLz)
    throw CodecError("unknown codec tag " +
                     std::to_string(entry.header.codec));
  std::string raw;
  lz_decompress(stored, entry.header.raw_len, raw);
  return raw;
}

// ---- Public API -------------------------------------------------------------

std::optional<std::string> SolutionStore::get(std::uint64_t digest,
                                              std::string_view key) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto [it, last] = index_.equal_range(digest); it != last; ++it) {
    const IndexEntry& entry = it->second;
    if (entry.header.key_len != key.size()) continue;
    if (read_record_key(entry) != key) continue;
    try {
      std::string value = read_record_value(entry);
      stats_.hits++;
      return value;
    } catch (const CodecError&) {
      // CRC said the bytes were intact at open, but the codec tag is
      // unknown or the stream does not decode: treat as a miss rather than
      // crash the gateway; compaction or a fresh put will paper over it.
      break;
    }
  }
  stats_.misses++;
  return std::nullopt;
}

void SolutionStore::put(std::uint64_t digest, std::string_view key,
                        std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);

  RecordHeader header;
  header.flags = kRecordPut;
  header.digest = digest;
  header.raw_len = static_cast<std::uint32_t>(value.size());
  std::string_view stored = value;
  if (lz_compress(value, scratch_)) {
    header.codec = kCodecLz;
    stored = scratch_;
  } else {
    header.codec = kCodecStored;
  }
  // encode_record takes the lengths from the spans it writes; mirror them
  // into the header we index, or in-memory lookups would compare against 0.
  header.key_len = static_cast<std::uint32_t>(key.size());
  header.value_len = static_cast<std::uint32_t>(stored.size());

  std::string record;
  encode_record(header, key, stored, record);
  if (record.size() > options_.byte_budget) {
    stats_.oversize_rejects++;
    return;
  }

  IndexEntry old;
  if (erase_live(digest, key, &old)) {
    // Superseded in place: the old record is dead weight until compaction.
    stats_.live_stored_bytes -= record_bytes(old.header);
    stats_.live_raw_bytes -= old.header.raw_len;
    stats_.live_value_bytes -= old.header.value_len;
    stats_.dead_stored_bytes += record_bytes(old.header);
    if (old.header.codec == kCodecStored)
      stats_.stored_records--;
    else
      stats_.compressed_records--;
    stats_.entries--;
  }

  rotate_if_needed(record.size());
  const RecordRef ref{digest, active_segment_, active_size_};
  append_active(record);
  index_.emplace(digest, IndexEntry{ref.segment, ref.offset, header});
  eviction_order_.push_back(ref);
  stats_.live_stored_bytes += record.size();
  stats_.live_raw_bytes += value.size();
  stats_.live_value_bytes += stored.size();
  if (header.codec == kCodecStored)
    stats_.stored_records++;
  else
    stats_.compressed_records++;
  stats_.entries++;
  stats_.appends++;

  evict_until_within_budget();
  maybe_auto_compact();
}

void SolutionStore::evict_until_within_budget() {
  while (stats_.live_stored_bytes > options_.byte_budget &&
         stats_.entries > 1 && !eviction_order_.empty()) {
    const RecordRef at = eviction_order_.front();
    eviction_order_.pop_front();
    // Stale (superseded or already evicted) refs are skipped lazily.
    const auto it = find_live(at);
    if (it == index_.end()) continue;

    const IndexEntry victim = it->second;
    const std::string key = read_record_key(victim);
    index_.erase(it);

    RecordHeader tomb;
    tomb.flags = kRecordTombstone;
    tomb.codec = kCodecStored;
    tomb.digest = at.digest;
    std::string record;
    encode_record(tomb, key, {}, record);
    rotate_if_needed(record.size());
    append_active(record);

    stats_.live_stored_bytes -= record_bytes(victim.header);
    stats_.live_raw_bytes -= victim.header.raw_len;
    stats_.live_value_bytes -= victim.header.value_len;
    stats_.dead_stored_bytes += record_bytes(victim.header) + record.size();
    if (victim.header.codec == kCodecStored)
      stats_.stored_records--;
    else
      stats_.compressed_records--;
    stats_.entries--;
    stats_.evictions++;
    stats_.tombstones++;
  }
}

void SolutionStore::maybe_auto_compact() {
  if (!options_.auto_compact) return;
  if (stats_.dead_stored_bytes > options_.byte_budget / 2) compact_locked();
}

void SolutionStore::compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  compact_locked();
}

void SolutionStore::compact_locked() {
  // Live records in age order (skipping stale eviction refs), copied
  // verbatim — content and CRC are unchanged, only the address moves.
  std::vector<std::pair<std::uint64_t, IndexEntry>> live;
  live.reserve(stats_.entries);
  for (const RecordRef& ref : eviction_order_) {
    const auto it = find_live(ref);
    if (it != index_.end()) live.emplace_back(ref.digest, it->second);
  }

  const std::vector<std::uint64_t> old_ids = [this] {
    std::vector<std::uint64_t> ids;
    ids.reserve(fds_.size());
    for (const auto& [id, fd] : fds_) ids.push_back(id);
    return ids;
  }();

  // Write the survivors into fresh segments (ids keep increasing: replay
  // order stays correct even if a crash leaves both copies on disk).
  active_segment_ = next_segment_id_++;
  create_segment(active_segment_);
  active_size_ = kSegmentHeaderSize;

  Index new_index;
  std::deque<RecordRef> new_order;
  std::string record;
  for (auto& [digest, at] : live) {
    const std::size_t size = record_bytes(at.header);
    record.resize(size);
    const int fd = fds_.at(at.segment);
    std::size_t done = 0;
    while (done < size) {
      const ssize_t got = ::pread(fd, record.data() + done, size - done,
                                  static_cast<off_t>(at.offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        sys_fail("pread compact");
      }
      if (got == 0) throw StoreError("record truncated during compact");
      done += static_cast<std::size_t>(got);
    }
    rotate_if_needed(size);
    const RecordRef ref{digest, active_segment_, active_size_};
    append_active(record);
    new_index.emplace(digest, IndexEntry{ref.segment, ref.offset, at.header});
    new_order.push_back(ref);
  }
  ::fdatasync(fds_.at(active_segment_));

  // Drop the old segments, oldest first: a put is always older than its
  // tombstone, so a crash part-way through cannot resurrect a dead key.
  for (const std::uint64_t id : old_ids) {
    const auto it = fds_.find(id);
    ::close(it->second);
    fds_.erase(it);
    const std::string path = dir_ + "/" + segment_file_name(id);
    if (::unlink(path.c_str()) < 0) sys_fail("unlink " + path);
  }

  index_ = std::move(new_index);
  eviction_order_ = std::move(new_order);
  stats_.dead_stored_bytes = 0;
  stats_.segments = fds_.size();
  stats_.compactions++;
}

void SolutionStore::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = fds_.find(active_segment_);
  if (it != fds_.end()) ::fdatasync(it->second);
}

StoreStats SolutionStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---- fsck -------------------------------------------------------------------

FsckReport SolutionStore::fsck(const std::string& dir) {
  FsckReport report;
  const std::vector<std::uint64_t> ids = list_segments(dir);

  // Newest-wins replay to count live entries; collisions resolved by the
  // actual key bytes (all in memory here — fsck is offline tooling).
  std::unordered_map<std::uint64_t, std::vector<std::string>> live;
  std::size_t live_count = 0;

  for (const std::uint64_t id : ids) {
    const std::string path = dir + "/" + segment_file_name(id);
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) sys_fail("open " + path);
    std::string image;
    try {
      image = read_whole_file(fd, path);
    } catch (...) {
      ::close(fd);
      throw;
    }
    ::close(fd);

    const SegmentScan scan = scan_segment(image);
    FsckReport::Segment seg;
    seg.file = segment_file_name(id);
    seg.header_ok = scan.header_ok;
    seg.file_bytes = image.size();
    seg.records = scan.records.size();
    seg.torn_bytes = scan.torn_bytes;
    seg.corrupt_bytes = scan.corrupt_bytes;
    seg.corrupt_records = scan.corrupt_records;
    report.segments.push_back(seg);
    report.records += scan.records.size();
    report.corrupt_records += scan.corrupt_records;
    if (scan.torn_bytes > 0) report.torn_segments++;

    for (const ScannedRecord& rec : scan.records) {
      std::string key(image, rec.offset + kRecordHeaderSize,
                      rec.header.key_len);
      auto& keys = live[rec.header.digest];
      const auto it = std::find(keys.begin(), keys.end(), key);
      if (rec.header.flags == kRecordTombstone) {
        if (it != keys.end()) {
          keys.erase(it);
          live_count--;
        }
      } else if (it == keys.end()) {
        keys.push_back(std::move(key));
        live_count++;
      }
    }
  }
  report.live_entries = live_count;
  return report;
}

}  // namespace cnash::store

// The persistent tier-2 solution store (src/store/). Contracts under test:
//   * codec: round-trip on structured and adversarial buffers, a stored
//     fallback for incompressible input, malformed streams throw CodecError
//     instead of crashing or over-reading;
//   * log + store: put/get round-trip across segment rotation and reopen,
//     newest-wins supersede, budget eviction via tombstones that survives
//     reopen, compaction reclaims dead bytes with every live record intact;
//   * crash safety: a torn tail (truncate mid-record) is amputated on reopen
//     and reported by fsck; a CRC-corrupted record is skipped while the rest
//     of the segment stays servable; a CRC-valid record with an unknown
//     codec tag is served as a miss;
//   * serve integration: a RAM-missed key is served from disk and promoted,
//     a gateway restart against a populated --store-dir answers a previously
//     solved request byte-identically with zero new SolverService jobs, a
//     permuted game hits through the disk tier and maps back into the
//     caller's action order, and degraded reports are never persisted.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/report_json.hpp"
#include "game/parse.hpp"
#include "game/random_games.hpp"
#include "serve/line_client.hpp"
#include "serve/server.hpp"
#include "store/codec.hpp"
#include "store/log.hpp"
#include "store/store.hpp"
#include "util/json.hpp"

namespace cnash {
namespace {

namespace fs = std::filesystem;

// ---- helpers ----------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/cnash_store_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    dir_ = made ? made : "";
  }
  ~TempDir() {
    std::error_code ec;
    if (!dir_.empty()) fs::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

std::uint64_t digest_of(const std::string& key) {
  return std::hash<std::string>{}(key);
}

/// JSON-shaped, compressible payload (what the serve layer actually stores).
std::string json_like_value(int i) {
  std::string v = "{\"backend\":\"exact-sa\",\"samples\":[";
  for (int s = 0; s < 6; ++s) {
    if (s) v += ",";
    v += "{\"p\":[0.125,0.125,0.25,0.5],\"q\":[0.5,0.25,0.25],"
         "\"objective\":0.0,\"valid\":true,\"is_nash\":true,\"regret\":0.0}";
  }
  v += "],\"tag\":" + std::to_string(i) + "}";
  return v;
}

/// Incompressible payload (pseudo-random bytes).
std::string random_value(std::uint32_t seed, std::size_t n) {
  std::mt19937 rng(seed);
  std::string v(n, '\0');
  for (char& c : v) c = static_cast<char>(rng());
  return v;
}

std::string single_segment_path(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& e : fs::directory_iterator(dir))
    segments.push_back(e.path().string());
  EXPECT_EQ(segments.size(), 1u);
  return segments.empty() ? "" : segments.front();
}

// ---- codec ------------------------------------------------------------------

TEST(Codec, RoundTripOnStructuredAndAdversarialBuffers) {
  std::vector<std::string> inputs = {
      "",
      "a",
      "abc",
      "abcd",
      "abcdabcd",
      std::string(10000, '\0'),
      std::string(300, 'x'),  // literal runs + RLE-style overlap, > 128
      json_like_value(0),
      random_value(1, 4096),
  };
  // Repeated block far apart: exercises offsets near the 16-bit limit.
  {
    std::string far = random_value(2, 200);
    std::string buf = far + std::string(65000, 'q') + far;
    inputs.push_back(std::move(buf));
  }
  // Low-entropy random: compressible but irregular.
  {
    std::mt19937 rng(3);
    std::string v(8192, '\0');
    for (char& c : v) c = "ab"[rng() % 2];
    inputs.push_back(std::move(v));
  }

  std::string packed, unpacked;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!store::lz_compress(inputs[i], packed)) continue;  // stored fallback
    EXPECT_LT(packed.size(), inputs[i].size()) << "input " << i;
    store::lz_decompress(packed, inputs[i].size(), unpacked);
    EXPECT_EQ(unpacked, inputs[i]) << "input " << i;
  }

  // The structured buffers must actually compress — the acceptance bar for
  // the serving workload is ratio > 1.
  EXPECT_TRUE(store::lz_compress(json_like_value(1), packed));
  EXPECT_TRUE(store::lz_compress(std::string(10000, '\0'), packed));
}

TEST(Codec, IncompressibleInputFallsBackToStored) {
  std::string packed;
  EXPECT_FALSE(store::lz_compress(random_value(7, 4096), packed));
  EXPECT_FALSE(store::lz_compress("", packed));
  EXPECT_FALSE(store::lz_compress("ab", packed));
}

TEST(Codec, MalformedStreamsThrowInsteadOfCrashing) {
  std::string out;
  // Literal run of 4 announced, 1 byte present.
  EXPECT_THROW(store::lz_decompress(std::string("\x03z", 2), 4, out),
               store::CodecError);
  // Match with offset 0 (never emitted by the compressor).
  EXPECT_THROW(
      store::lz_decompress(std::string("\x00q\x80\x00\x00", 5), 5, out),
      store::CodecError);
  // Match offset larger than the output produced so far.
  EXPECT_THROW(
      store::lz_decompress(std::string("\x00q\x80\x05\x00", 5), 5, out),
      store::CodecError);
  // Match runs past the declared decoded size.
  EXPECT_THROW(
      store::lz_decompress(std::string("\x00q\x80\x01\x00", 5), 2, out),
      store::CodecError);
  // Stream ends inside a match header.
  EXPECT_THROW(store::lz_decompress(std::string("\x00q\x80", 3), 5, out),
               store::CodecError);
  // Decoded size disagrees with the header.
  EXPECT_THROW(store::lz_decompress(std::string("\x00q", 2), 2, out),
               store::CodecError);
}

// ---- store: round-trip, supersede, eviction, compaction ---------------------

TEST(Store, PutGetRoundTripAcrossRotationAndReopen) {
  TempDir dir;
  store::StoreOptions options;
  options.segment_bytes = 4096;  // force rotation across many small records
  std::vector<std::pair<std::string, std::string>> kv;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key-" + std::to_string(i);
    // Mix compressible and incompressible values: both codecs on disk.
    kv.emplace_back(key, i % 3 == 0 ? random_value(i, 300) : json_like_value(i));
  }

  {
    store::SolutionStore store(dir.path(), options);
    for (const auto& [k, v] : kv) store.put(digest_of(k), k, v);
    const store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.entries, kv.size());
    EXPECT_EQ(stats.appends, kv.size());
    EXPECT_GT(stats.segments, 1u);
    EXPECT_GT(stats.compressed_records, 0u);
    EXPECT_GT(stats.stored_records, 0u);
    for (const auto& [k, v] : kv) {
      const auto got = store.get(digest_of(k), k);
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(*got, v) << k;
    }
    EXPECT_FALSE(store.get(digest_of("absent"), "absent").has_value());
  }

  // Reopen: the index is rebuilt purely from the segment scan.
  store::SolutionStore reopened(dir.path(), options);
  const store::StoreStats stats = reopened.stats();
  EXPECT_EQ(stats.entries, kv.size());
  EXPECT_EQ(stats.torn_tail_truncations, 0u);
  EXPECT_EQ(stats.corrupt_records_skipped, 0u);
  EXPECT_GT(stats.compression_ratio(), 1.0);
  for (const auto& [k, v] : kv) {
    const auto got = reopened.get(digest_of(k), k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(*got, v) << k;
  }
}

TEST(Store, SupersedeKeepsNewestAcrossReopen) {
  TempDir dir;
  {
    store::SolutionStore store(dir.path());
    store.put(digest_of("k"), "k", "old value old value old value");
    store.put(digest_of("k"), "k", "new value new value new value!");
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_GT(store.stats().dead_stored_bytes, 0u);
    EXPECT_EQ(*store.get(digest_of("k"), "k"),
              "new value new value new value!");
  }
  store::SolutionStore reopened(dir.path());
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(*reopened.get(digest_of("k"), "k"),
            "new value new value new value!");
}

TEST(Store, FullKeyCompareDisambiguatesDigestCollisions) {
  TempDir dir;
  store::SolutionStore store(dir.path());
  // Same digest, different key bytes: both must coexist and resolve.
  store.put(42, "alpha", "value-alpha");
  store.put(42, "beta", "value-beta");
  EXPECT_EQ(store.stats().entries, 2u);
  EXPECT_EQ(*store.get(42, "alpha"), "value-alpha");
  EXPECT_EQ(*store.get(42, "beta"), "value-beta");
  EXPECT_FALSE(store.get(42, "gamma").has_value());
}

TEST(Store, BudgetEvictionWritesTombstonesThatSurviveReopen) {
  TempDir dir;
  store::StoreOptions options;
  options.byte_budget = 4096;
  options.auto_compact = false;  // keep the tombstone records visible
  std::vector<std::string> keys;
  {
    store::SolutionStore store(dir.path(), options);
    for (int i = 0; i < 10; ++i) {
      const std::string key = "evict-" + std::to_string(i);
      keys.push_back(key);
      store.put(digest_of(key), key, random_value(100 + i, 700));
    }
    const store::StoreStats stats = store.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.tombstones, stats.evictions);
    EXPECT_LT(stats.entries, keys.size());
    EXPECT_LE(stats.live_stored_bytes, options.byte_budget);
    // Oldest-written goes first; the newest put always survives.
    EXPECT_FALSE(store.get(digest_of(keys[0]), keys[0]).has_value());
    EXPECT_TRUE(store.get(digest_of(keys.back()), keys.back()).has_value());
  }

  // Tombstones replay on reopen: the evicted keys stay gone.
  store::SolutionStore reopened(dir.path(), options);
  EXPECT_FALSE(reopened.get(digest_of(keys[0]), keys[0]).has_value());
  EXPECT_TRUE(reopened.get(digest_of(keys.back()), keys.back()).has_value());
}

TEST(Store, OversizePutIsRejectedNotWritten) {
  TempDir dir;
  store::StoreOptions options;
  options.byte_budget = 1024;
  store::SolutionStore store(dir.path(), options);
  store.put(digest_of("big"), "big", random_value(9, 4096));
  EXPECT_EQ(store.stats().oversize_rejects, 1u);
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_FALSE(store.get(digest_of("big"), "big").has_value());
}

TEST(Store, CompactReclaimsDeadBytesKeepsEveryLiveRecord) {
  TempDir dir;
  store::StoreOptions options;
  options.segment_bytes = 2048;
  options.auto_compact = false;
  {
    store::SolutionStore store(dir.path(), options);
    for (int i = 0; i < 20; ++i) {
      const std::string key = "c-" + std::to_string(i);
      store.put(digest_of(key), key, json_like_value(i));
    }
    for (int i = 0; i < 10; ++i) {  // supersede half: dead weight piles up
      const std::string key = "c-" + std::to_string(i);
      store.put(digest_of(key), key, json_like_value(1000 + i));
    }
    const std::size_t segments_before = store.stats().segments;
    EXPECT_GT(store.stats().dead_stored_bytes, 0u);

    store.compact();
    const store::StoreStats stats = store.stats();
    EXPECT_EQ(stats.compactions, 1u);
    EXPECT_EQ(stats.dead_stored_bytes, 0u);
    EXPECT_EQ(stats.entries, 20u);
    EXPECT_LE(stats.segments, segments_before);
    for (int i = 0; i < 20; ++i) {
      const std::string key = "c-" + std::to_string(i);
      const auto got = store.get(digest_of(key), key);
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(*got, json_like_value(i < 10 ? 1000 + i : i)) << key;
    }
  }
  // A compacted directory reopens like any other.
  store::SolutionStore reopened(dir.path(), options);
  EXPECT_EQ(reopened.stats().entries, 20u);
  EXPECT_EQ(*reopened.get(digest_of("c-3"), "c-3"), json_like_value(1003));
  EXPECT_EQ(*reopened.get(digest_of("c-15"), "c-15"), json_like_value(15));
}

// ---- crash safety -----------------------------------------------------------

TEST(Store, TornTailIsTruncatedOnReopenAndFsckReportsIt) {
  TempDir dir;
  {
    store::SolutionStore store(dir.path());
    store.put(digest_of("a"), "a", json_like_value(1));
    store.put(digest_of("b"), "b", json_like_value(2));
    store.put(digest_of("c"), "c", json_like_value(3));
  }
  const std::string segment = single_segment_path(dir.path());
  // Crash mid-append: the last record loses its final 3 bytes.
  fs::resize_file(segment, fs::file_size(segment) - 3);

  const store::FsckReport before = store::SolutionStore::fsck(dir.path());
  EXPECT_FALSE(before.clean());
  EXPECT_EQ(before.torn_segments, 1u);
  EXPECT_EQ(before.records, 2u);
  EXPECT_EQ(before.live_entries, 2u);

  {
    store::SolutionStore store(dir.path());
    EXPECT_EQ(store.stats().torn_tail_truncations, 1u);
    EXPECT_EQ(store.stats().entries, 2u);
    EXPECT_EQ(*store.get(digest_of("a"), "a"), json_like_value(1));
    EXPECT_EQ(*store.get(digest_of("b"), "b"), json_like_value(2));
    EXPECT_FALSE(store.get(digest_of("c"), "c").has_value());
    // The amputated log accepts appends again.
    store.put(digest_of("d"), "d", json_like_value(4));
  }

  const store::FsckReport after = store::SolutionStore::fsck(dir.path());
  EXPECT_TRUE(after.clean());
  EXPECT_EQ(after.live_entries, 3u);
}

TEST(Store, CrcCorruptRecordIsSkippedRestOfSegmentIntact) {
  TempDir dir;
  {
    store::SolutionStore store(dir.path());
    store.put(digest_of("first"), "first", json_like_value(1));
    store.put(digest_of("second"), "second", json_like_value(2));
    store.put(digest_of("third"), "third", json_like_value(3));
  }
  const std::string segment = single_segment_path(dir.path());
  {
    // Flip one byte inside the FIRST record's key: its CRC fails, and the
    // scan must resynchronise on the next record magic — the two records
    // behind it stay servable.
    std::fstream f(segment, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(store::kSegmentHeaderSize +
                                        store::kRecordHeaderSize + 1));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(store::kSegmentHeaderSize +
                                        store::kRecordHeaderSize + 1));
    f.write(&byte, 1);
  }

  const store::FsckReport report = store::SolutionStore::fsck(dir.path());
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.corrupt_records, 1u);
  EXPECT_EQ(report.records, 2u);

  store::SolutionStore store(dir.path());
  EXPECT_GE(store.stats().corrupt_records_skipped, 1u);
  EXPECT_EQ(store.stats().entries, 2u);
  EXPECT_FALSE(store.get(digest_of("first"), "first").has_value());
  EXPECT_EQ(*store.get(digest_of("second"), "second"), json_like_value(2));
  EXPECT_EQ(*store.get(digest_of("third"), "third"), json_like_value(3));

  // Compaction rewrites the survivors into a fresh, clean segment.
  store.compact();
  const store::FsckReport compacted = store::SolutionStore::fsck(dir.path());
  EXPECT_TRUE(compacted.clean());
  EXPECT_EQ(compacted.live_entries, 2u);
}

TEST(Store, UnknownCodecTagIsServedAsAMiss) {
  TempDir dir;
  {
    store::SolutionStore store(dir.path());
    store.put(digest_of("only"), "only", json_like_value(1));
    EXPECT_EQ(store.stats().compressed_records, 1u);
  }
  const std::string segment = single_segment_path(dir.path());
  std::string image;
  {
    std::ifstream in(segment, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Rewrite the record's codec byte to a tag no codec owns, then re-seal the
  // record with a valid CRC: the scan accepts it, and only the tag is wrong.
  const std::size_t record = store::kSegmentHeaderSize;
  image[record + 9] = 7;
  const std::uint32_t crc =
      store::crc32(image.data() + record + 8, image.size() - record - 8);
  for (int b = 0; b < 4; ++b)
    image[record + 4 + b] = static_cast<char>((crc >> (8 * b)) & 0xFF);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
  }

  EXPECT_TRUE(store::SolutionStore::fsck(dir.path()).clean());
  store::SolutionStore store(dir.path());
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_FALSE(store.get(digest_of("only"), "only").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
}

// ---- serve integration ------------------------------------------------------

core::SolveRequest quick_request(const game::BimatrixGame& g,
                                 const std::string& backend = "exact-sa",
                                 std::size_t runs = 4, std::uint64_t seed = 7) {
  core::SolveRequest req(g);
  req.backend = backend;
  req.runs = runs;
  req.seed = seed;
  req.sa.iterations = 300;
  return req;
}

TEST(CacheTier2, WriteThroughThenPromoteOnHitFromAFreshCache) {
  TempDir dir;
  store::SolutionStore store(dir.path());

  util::Rng rng(4242);
  const game::BimatrixGame g = game::random_covariant_game(5, 4, 0.2, rng);
  const serve::CanonicalRequest canonical =
      serve::canonicalize(quick_request(g));
  const core::SolveReport report =
      core::SolverRegistry::global().at("exact-sa").solve(canonical.request);

  {
    serve::SolutionCache cache(1u << 20);
    cache.attach_store(&store);
    cache.insert(canonical.key,
                 std::make_shared<const core::SolveReport>(report));
    EXPECT_EQ(store.stats().appends, 1u);
    // RAM still warm: the store is not consulted.
    EXPECT_NE(cache.lookup(canonical.key), nullptr);
    EXPECT_EQ(store.stats().hits, 0u);
  }

  // A brand-new RAM tier (a restart in miniature): the lookup falls through
  // to disk, decodes losslessly, and promotes.
  serve::SolutionCache fresh(1u << 20);
  fresh.attach_store(&store);
  const auto replay = fresh.lookup(canonical.key);
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(core::report_to_json(*replay).dump(),
            core::report_to_json(report).dump());
  EXPECT_EQ(replay->wall_clock_s, report.wall_clock_s);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(fresh.stats().misses, 1u);
  EXPECT_EQ(fresh.stats().insertions, 1u);
  // Promoted: the second lookup is a RAM hit, disk untouched.
  EXPECT_NE(fresh.lookup(canonical.key), nullptr);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(fresh.stats().hits, 1u);
}

/// serve::LineClient with raw-line access (the byte-identical checks compare
/// unparsed response lines).
class StoreTestClient {
 public:
  void connect_to(std::uint16_t port) {
    ASSERT_TRUE(client_.connect_to(port)) << std::strerror(errno);
  }
  std::string raw_request(const std::string& line) {
    EXPECT_TRUE(client_.send_line(line)) << std::strerror(errno);
    std::string response;
    EXPECT_TRUE(client_.recv_line(response));
    return response;
  }
  util::Json request(const std::string& line) {
    return util::Json::parse(raw_request(line));
  }

 private:
  serve::LineClient client_;
};

class StoreServerFixture {
 public:
  explicit StoreServerFixture(serve::ServeOptions options) : server_(options) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~StoreServerFixture() { stop(); }
  void stop() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }
  serve::NashServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

 private:
  serve::NashServer server_;
  std::thread thread_;
};

serve::ServeOptions store_options(const std::string& dir) {
  serve::ServeOptions options;
  options.serve_threads = 2;
  options.service_threads = 2;
  options.store_dir = dir;
  return options;
}

std::string solve_line(const game::BimatrixGame& g, int id,
                       std::uint64_t seed = 7, const std::string& extra = "") {
  std::string line = "{\"method\":\"solve\",\"id\":" + std::to_string(id);
  line += ",\"game_text\":" +
          util::Json::string(game::serialize_game(g, /*precision=*/12)).dump();
  line += ",\"backend\":\"exact-sa\",\"runs\":4,\"iterations\":300";
  line += ",\"seed\":" + std::to_string(seed);
  line += extra;
  line += "}";
  return line;
}

TEST(ServeStore, RestartServesByteIdenticalWarmHitWithZeroJobs) {
  TempDir dir;
  util::Rng rng(77);
  const game::BimatrixGame g = game::random_covariant_game(6, 6, 0.1, rng);
  const std::string line = solve_line(g, 1);

  std::string cold;
  {
    StoreServerFixture fixture(store_options(dir.path()));
    StoreTestClient client;
    client.connect_to(fixture.port());
    cold = client.raw_request(line);
    const util::Json parsed = util::Json::parse(cold);
    ASSERT_TRUE(parsed.at("ok").as_bool());
    EXPECT_FALSE(parsed.at("cached").as_bool());
    fixture.stop();
    EXPECT_EQ(
        fixture.server().stats().at("served").at("jobs_submitted").as_number(),
        1.0);
  }

  // A fresh process (in miniature) against the same directory: the solve is
  // answered from disk — byte-identical modulo the cached flag — and the
  // solver pool never hears about it.
  StoreServerFixture restarted(store_options(dir.path()));
  StoreTestClient client;
  client.connect_to(restarted.port());
  const std::string warm = client.raw_request(line);
  const util::Json parsed = util::Json::parse(warm);
  ASSERT_TRUE(parsed.at("ok").as_bool());
  EXPECT_TRUE(parsed.at("cached").as_bool());

  std::string cold_normalized = cold;
  const std::size_t flag = cold_normalized.find("\"cached\":false");
  ASSERT_NE(flag, std::string::npos);
  cold_normalized.replace(flag, std::strlen("\"cached\":false"),
                          "\"cached\":true");
  EXPECT_EQ(warm, cold_normalized);

  const util::Json stats = client.request("{\"method\":\"stats\"}");
  EXPECT_EQ(stats.at("stats").at("store").at("hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("stats").at("served").at("jobs_submitted").as_number(),
            0.0);
  restarted.stop();
  EXPECT_EQ(
      restarted.server().stats().at("served").at("jobs_submitted").as_number(),
      0.0);
}

TEST(ServeStore, PermutedGameHitsThroughTheDiskTier) {
  TempDir dir;
  util::Rng rng(78);
  const game::BimatrixGame g = game::random_covariant_game(5, 4, -0.2, rng);

  util::Json first;
  {
    StoreServerFixture fixture(store_options(dir.path()));
    StoreTestClient client;
    client.connect_to(fixture.port());
    first = client.request(solve_line(g, 1));
    ASSERT_TRUE(first.at("ok").as_bool());
  }

  // Relabel both action sets and rename the game: same canonical solve.
  const std::vector<std::uint32_t> rows = {3, 0, 4, 1, 2};
  const std::vector<std::uint32_t> cols = {2, 3, 0, 1};
  la::Matrix m(5, 4), n(5, 4);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      m(r, c) = g.payoff1()(rows[r], cols[c]);
      n(r, c) = g.payoff2()(rows[r], cols[c]);
    }
  const game::BimatrixGame shuffled(std::move(m), std::move(n), "shuffled");

  StoreServerFixture restarted(store_options(dir.path()));
  StoreTestClient client;
  client.connect_to(restarted.port());
  const util::Json second = client.request(solve_line(shuffled, 2));
  ASSERT_TRUE(second.at("ok").as_bool());
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("report").at("game").as_string(), "shuffled");
  restarted.stop();
  EXPECT_EQ(
      restarted.server().stats().at("served").at("jobs_submitted").as_number(),
      0.0);

  // The disk-tier report is mapped back into the caller's action order:
  // strategy mass moves with the relabeling, sample by sample.
  const util::Json& s1 = first.at("report").at("samples");
  const util::Json& s2 = second.at("report").at("samples");
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t s = 0; s < s1.size(); ++s) {
    const util::Json& p1 = s1.at(s).at("p");
    const util::Json& p2 = s2.at(s).at("p");
    for (std::size_t r = 0; r < rows.size(); ++r)
      EXPECT_EQ(p2.at(r).as_number(), p1.at(rows[r]).as_number())
          << "sample " << s << " row " << r;
    const util::Json& q1 = s1.at(s).at("q");
    const util::Json& q2 = s2.at(s).at("q");
    for (std::size_t c = 0; c < cols.size(); ++c)
      EXPECT_EQ(q2.at(c).as_number(), q1.at(cols[c]).as_number())
          << "sample " << s << " col " << c;
  }
}

TEST(ServeStore, DegradedReportsAreNeverPersisted) {
  TempDir dir;
  {
    StoreServerFixture fixture(store_options(dir.path()));
    StoreTestClient client;
    client.connect_to(fixture.port());
    // 64 single-lane heavy units on a 2-worker pool cannot finish in a
    // quarter second: the report comes back degraded — and must not land on
    // disk (nor in RAM; that rule predates the store).
    const util::Json solved = client.request(
        "{\"method\":\"solve\",\"id\":1,\"game\":{\"name\":\"mp\","
        "\"m\":[[1,-1],[-1,1]],\"n\":[[-1,1],[1,-1]]},"
        "\"backend\":\"exact-sa\",\"runs\":64,\"iterations\":1000000,"
        "\"seed\":3,\"batch_lanes\":1,\"deadline_s\":0.25}");
    ASSERT_TRUE(solved.at("ok").as_bool());
    EXPECT_TRUE(solved.at("report").at("degraded").as_bool());
  }
  const store::FsckReport report = store::SolutionStore::fsck(dir.path());
  EXPECT_EQ(report.live_entries, 0u);
  EXPECT_EQ(report.records, 0u);
}

}  // namespace
}  // namespace cnash

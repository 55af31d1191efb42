// The Nash-serving gateway (src/serve/). Contracts under test:
//   * canonicalization: permuted-but-identical games (and their solve
//     parameters) share a GameKey, near-identical games never do, the key
//     bytes of a fixed request are pinned, and map_to_original() inverts
//     the canonical permutation;
//   * SolutionCache: LRU eviction order under a byte budget, hit/miss/
//     eviction counters, and a cached report bit-identical to a fresh solve
//     with the same seed;
//   * AdmissionController: per-connection cap, global watermark, growing
//     retry_after hints;
//   * end-to-end over loopback TCP: every registered backend round-trips a
//     solve (including hardware-sa-tiled), a repeated identical request is
//     served from the cache (hit counter up, no new SolverService job,
//     byte-identical report), load shedding returns retry_after instead of
//     queueing unbounded work, malformed requests get structured errors, and
//     request_stop() drains gracefully.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/report_json.hpp"
#include "game/games.hpp"
#include "game/parse.hpp"
#include "game/random_games.hpp"
#include "serve/line_client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace cnash::serve {
namespace {

// ---- helpers ----------------------------------------------------------------

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

game::BimatrixGame permute_game(const game::BimatrixGame& g,
                                const std::vector<std::uint32_t>& rows,
                                const std::vector<std::uint32_t>& cols,
                                const std::string& name) {
  la::Matrix m(g.num_actions1(), g.num_actions2());
  la::Matrix n(g.num_actions1(), g.num_actions2());
  for (std::size_t r = 0; r < g.num_actions1(); ++r)
    for (std::size_t c = 0; c < g.num_actions2(); ++c) {
      m(r, c) = g.payoff1()(rows[r], cols[c]);
      n(r, c) = g.payoff2()(rows[r], cols[c]);
    }
  return game::BimatrixGame(std::move(m), std::move(n), name);
}

std::string fingerprint_no_wall_clock(const core::SolveReport& r) {
  // Everything the determinism guarantee covers; reuses the canonical JSON
  // rendering (wall_clock_s zeroed — it is measured, not derived).
  core::SolveReport copy = r;
  copy.wall_clock_s = 0.0;
  return core::report_to_json(copy).dump();
}

/// serve::LineClient plus gtest-flavoured helpers for the loopback tests.
class TestClient {
 public:
  void connect_to(std::uint16_t port) {
    ASSERT_TRUE(client_.connect_to(port)) << std::strerror(errno);
  }
  void send_line(const std::string& line) {
    ASSERT_TRUE(client_.send_line(line)) << std::strerror(errno);
  }
  /// False on orderly EOF.
  bool recv_line(std::string& line) { return client_.recv_line(line); }

  util::Json request(const std::string& line) {
    send_line(line);
    std::string response;
    EXPECT_TRUE(recv_line(response));
    return util::Json::parse(response);
  }

 private:
  LineClient client_;
};

/// One number of the server's `stats` payload.
double stat(const NashServer& server, const char* section, const char* key) {
  return server.stats().at(section).at(key).as_number();
}

/// Boots a NashServer on an ephemeral loopback port in a background thread
/// and joins it on teardown (graceful drain via request_stop()).
class ServerFixture {
 public:
  explicit ServerFixture(ServeOptions options = {}) : server_(options) {
    server_.start();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerFixture() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    server_.request_stop();
    thread_.join();
  }

  NashServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

 private:
  NashServer server_;
  std::thread thread_;
};

std::string solve_line(const game::BimatrixGame& g, int id,
                       const std::string& backend = "exact-sa",
                       std::size_t runs = 4, std::size_t iterations = 300,
                       std::uint64_t seed = 7, const std::string& extra = "") {
  std::string line = "{\"method\":\"solve\",\"id\":" + std::to_string(id);
  line += ",\"game_text\":" +
          util::Json::string(game::serialize_game(g, /*precision=*/12)).dump();
  line += ",\"backend\":\"" + backend + "\"";
  line += ",\"runs\":" + std::to_string(runs);
  line += ",\"iterations\":" + std::to_string(iterations);
  line += ",\"seed\":" + std::to_string(seed);
  line += extra;
  line += "}";
  return line;
}

// ---- canonicalization -------------------------------------------------------

TEST(Canonicalization, PermutedButIdenticalGamesShareAKey) {
  util::Rng rng(42);
  const game::BimatrixGame g = game::random_covariant_game(6, 5, 0.3, rng);
  const CanonicalRequest base = canonicalize(quick_request(g));

  std::vector<std::uint32_t> rows(6), cols(5);
  std::iota(rows.begin(), rows.end(), 0u);
  std::iota(cols.begin(), cols.end(), 0u);
  for (int trial = 0; trial < 8; ++trial) {
    for (std::size_t i = rows.size(); i > 1; --i)
      std::swap(rows[i - 1], rows[rng.uniform_index(i)]);
    for (std::size_t i = cols.size(); i > 1; --i)
      std::swap(cols[i - 1], cols[rng.uniform_index(i)]);
    const game::BimatrixGame shuffled =
        permute_game(g, rows, cols, "another name entirely");
    const CanonicalRequest other = canonicalize(quick_request(shuffled));
    EXPECT_EQ(other.key.digest, base.key.digest) << "trial " << trial;
    EXPECT_EQ(other.key.blob, base.key.blob) << "trial " << trial;
    // Same canonical game, different recorded permutations.
    EXPECT_EQ(other.request.game.payoff1(), base.request.game.payoff1());
    EXPECT_EQ(other.request.game.payoff2(), base.request.game.payoff2());
  }
}

TEST(Canonicalization, NearIdenticalGamesAndParamsHashDifferent) {
  util::Rng rng(43);
  const game::BimatrixGame g = game::random_covariant_game(4, 4, 0.0, rng);
  const CanonicalRequest base = canonicalize(quick_request(g));

  // One payoff nudged by 1 ulp-scale epsilon → different key.
  la::Matrix m = g.payoff1();
  m(2, 3) += 1e-12;
  const game::BimatrixGame nudged(m, g.payoff2(), g.name());
  EXPECT_NE(canonicalize(quick_request(nudged)).key.blob, base.key.blob);

  // Any result-affecting parameter change → different key.
  core::SolveRequest req = quick_request(g);
  req.seed = 8;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.backend = "hardware-sa";
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.runs = 5;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.sa.iterations = 301;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);
  req = quick_request(g);
  req.chip.tile_rows = 32;
  EXPECT_NE(canonicalize(req).key.blob, base.key.blob);

  // ... but max_parallelism is scheduling-only and must NOT split the key.
  req = quick_request(g);
  req.max_parallelism = 3;
  EXPECT_EQ(canonicalize(req).key.blob, base.key.blob);
  // Neither does the game's display name.
  const game::BimatrixGame renamed(g.payoff1(), g.payoff2(), "other");
  EXPECT_EQ(canonicalize(quick_request(renamed)).key.blob, base.key.blob);
}

TEST(Canonicalization, KeyBytesOfAFixedRequestArePinned) {
  // The gateway's disk store persists GameKeys across restarts, so the key
  // schema may only change together with the version salt. These constants
  // were recorded from the schema as it stands; if this test fails, bump the
  // salt in request_key() and re-pin.
  core::SolveRequest req(game::bird_game());
  req.backend = "hardware-sa-tiled";
  req.chip.tile_rows = 64;
  req.chip.tile_cols = 256;
  const CanonicalRequest canonical = canonicalize(req);
  EXPECT_EQ(canonical.key.digest, 0xa1d6f99306b2fa55ull);
  EXPECT_EQ(canonical.key.blob.size(), 440u);
}

TEST(Canonicalization, MapToOriginalInvertsThePermutation) {
  util::Rng rng(44);
  const game::BimatrixGame g = game::random_covariant_game(5, 4, -0.5, rng);
  const CanonicalRequest canonical = canonicalize(quick_request(g));

  // Solve the canonical game, map back, and check the mapping element-wise.
  const core::SolveReport canon_report =
      core::SolverRegistry::global().at("exact-sa").solve(canonical.request);
  const core::SolveReport mapped =
      map_to_original(canonical.mapping, canon_report);
  EXPECT_EQ(mapped.game_name, g.name());
  ASSERT_EQ(mapped.samples.size(), canon_report.samples.size());
  for (std::size_t s = 0; s < mapped.samples.size(); ++s) {
    for (std::size_t i = 0; i < canonical.mapping.row_perm.size(); ++i)
      EXPECT_EQ(mapped.samples[s].p[canonical.mapping.row_perm[i]],
                canon_report.samples[s].p[i]);
    for (std::size_t j = 0; j < canonical.mapping.col_perm.size(); ++j)
      EXPECT_EQ(mapped.samples[s].q[canonical.mapping.col_perm[j]],
                canon_report.samples[s].q[j]);
  }
}

// ---- solution cache ---------------------------------------------------------

GameKey fake_key(char tag) {
  GameKey key;
  key.blob = std::string("key-") + tag;
  key.digest = static_cast<std::uint64_t>(tag);
  return key;
}

std::shared_ptr<const core::SolveReport> small_report(char tag) {
  core::SolveReport report;
  report.backend = "test";
  report.game_name = std::string(1, tag);
  core::SolveSample s;
  s.p = {1.0, 0.0};
  s.q = {0.0, 1.0};
  report.samples = {s};
  return std::make_shared<const core::SolveReport>(std::move(report));
}

TEST(SolutionCache, LruEvictionOrderUnderByteBudget) {
  // Measure the exact accounted size of one entry, then budget for three.
  std::size_t entry_bytes = 0;
  {
    SolutionCache probe(1u << 20);
    probe.insert(fake_key('a'), small_report('a'));
    entry_bytes = probe.stats().bytes;
  }
  SolutionCache cache(3 * entry_bytes + entry_bytes / 2);  // fits 3 entries

  cache.insert(fake_key('a'), small_report('a'));
  cache.insert(fake_key('b'), small_report('b'));
  cache.insert(fake_key('c'), small_report('c'));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch 'a' so 'b' becomes least recently used, then overflow with 'd'.
  ASSERT_NE(cache.lookup(fake_key('a')), nullptr);
  cache.insert(fake_key('d'), small_report('d'));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(fake_key('b')), nullptr) << "LRU entry must go first";
  EXPECT_NE(cache.lookup(fake_key('a')), nullptr);
  EXPECT_NE(cache.lookup(fake_key('c')), nullptr);
  EXPECT_NE(cache.lookup(fake_key('d')), nullptr);
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_LE(cache.stats().bytes, cache.stats().byte_budget);
}

TEST(SolutionCache, OversizeReportsAreNeverAdmitted) {
  SolutionCache cache(64);  // smaller than any real report
  cache.insert(fake_key('a'), small_report('a'));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
  EXPECT_EQ(cache.lookup(fake_key('a')), nullptr);
}

TEST(SolutionCache, CachedReportIsBitIdenticalToAFreshSolveWithTheSameSeed) {
  const game::BimatrixGame g = game::bird_game();
  const CanonicalRequest canonical =
      canonicalize(quick_request(g, "hardware-sa", 3, 99));

  const core::SolveReport first =
      core::SolverRegistry::global().at("hardware-sa").solve(canonical.request);
  SolutionCache cache(1u << 20);
  cache.insert(canonical.key, std::make_shared<const core::SolveReport>(first));

  const std::shared_ptr<const core::SolveReport> replay =
      cache.lookup(canonical.key);
  ASSERT_NE(replay, nullptr);
  const core::SolveReport fresh =
      core::SolverRegistry::global().at("hardware-sa").solve(canonical.request);
  EXPECT_EQ(fingerprint_no_wall_clock(*replay),
            fingerprint_no_wall_clock(fresh));
  // Replay preserves the *original* measured wall clock and modeled timing.
  EXPECT_EQ(replay->wall_clock_s, first.wall_clock_s);
  EXPECT_EQ(replay->modeled_time_s, first.modeled_time_s);
}

// ---- admission --------------------------------------------------------------

TEST(Admission, CapsAndWatermarkAndRetryHints) {
  AdmissionController admission({/*max_queue_depth=*/2,
                                 /*per_connection_inflight=*/1,
                                 /*retry_after_s=*/0.5});
  using Verdict = AdmissionController::Verdict;
  EXPECT_EQ(admission.admit(0, 0), Verdict::kAdmit);
  EXPECT_EQ(admission.admit(0, 1), Verdict::kShedConnectionCap);
  EXPECT_EQ(admission.admit(2, 0), Verdict::kShedQueueFull);
  EXPECT_EQ(admission.stats().admitted, 1u);
  EXPECT_EQ(admission.stats().shed_connection_cap, 1u);
  EXPECT_EQ(admission.stats().shed_queue_full, 1u);
  // base × (1 + backlog/watermark): base when empty, 2×base at the
  // watermark — the deepest backlog a shed request can observe.
  EXPECT_DOUBLE_EQ(admission.retry_after_s(0), 0.5);
  EXPECT_DOUBLE_EQ(admission.retry_after_s(1), 0.75);
  EXPECT_DOUBLE_EQ(admission.retry_after_s(2), 1.0);
}

// ---- end-to-end over loopback ----------------------------------------------

TEST(ServeEndToEnd, EveryRegisteredBackendRoundTripsASolve) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const game::BimatrixGame g = game::battle_of_sexes();
  int id = 0;
  for (const std::string& backend : core::SolverRegistry::global().names()) {
    const util::Json response =
        client.request(solve_line(g, id++, backend, 6, 300, 2024));
    ASSERT_TRUE(response.at("ok").as_bool()) << backend << ": "
                                             << response.dump();
    EXPECT_FALSE(response.at("cached").as_bool()) << backend;
    const core::SolveReport report =
        core::report_from_json(response.at("report"));
    EXPECT_EQ(report.backend, backend);
    EXPECT_EQ(report.game_name, g.name()) << backend;
    EXPECT_FALSE(report.samples.empty()) << backend;
    for (const core::SolveSample& s : report.samples) {
      EXPECT_EQ(s.p.size(), g.num_actions1()) << backend;
      EXPECT_EQ(s.q.size(), g.num_actions2()) << backend;
    }
  }
}

TEST(ServeEndToEnd, RepeatedIdenticalRequestIsServedFromTheCache) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());
  const game::BimatrixGame g = game::bird_game();

  const util::Json cold =
      client.request(solve_line(g, 1, "hardware-sa", 4, 400, 51966));
  ASSERT_TRUE(cold.at("ok").as_bool()) << cold.dump();
  EXPECT_FALSE(cold.at("cached").as_bool());

  const util::Json warm =
      client.request(solve_line(g, 2, "hardware-sa", 4, 400, 51966));
  ASSERT_TRUE(warm.at("ok").as_bool()) << warm.dump();
  EXPECT_TRUE(warm.at("cached").as_bool());
  // Byte-identical report (rendering is deterministic, replay is exact —
  // including the modeled timing and the original measured wall clock).
  EXPECT_EQ(warm.at("report").dump(), cold.at("report").dump());

  // Hit counter incremented, and no new SolverService job was submitted.
  const util::Json stats = client.request("{\"method\":\"stats\"}");
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("stats").at("cache").at("hits").as_number(), 1.0);
  EXPECT_EQ(stats.at("stats").at("cache").at("misses").as_number(), 1.0);
  EXPECT_EQ(stats.at("stats").at("served").at("jobs_submitted").as_number(),
            1.0);

  // A different seed is a different solve: miss, new job.
  const util::Json other =
      client.request(solve_line(g, 3, "hardware-sa", 4, 400, 51967));
  ASSERT_TRUE(other.at("ok").as_bool());
  EXPECT_FALSE(other.at("cached").as_bool());
  EXPECT_NE(other.at("report").dump(), cold.at("report").dump());
}

TEST(ServeEndToEnd, PermutedGameIsServedFromTheCacheInItsOwnActionOrder) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const game::BimatrixGame g = game::battle_of_sexes();
  const game::BimatrixGame swapped =
      permute_game(g, {1, 0}, {1, 0}, "swapped bos");

  const util::Json cold = client.request(solve_line(g, 1, "exact-sa", 5, 400));
  ASSERT_TRUE(cold.at("ok").as_bool());
  const util::Json hit =
      client.request(solve_line(swapped, 2, "exact-sa", 5, 400));
  ASSERT_TRUE(hit.at("ok").as_bool()) << hit.dump();
  EXPECT_TRUE(hit.at("cached").as_bool())
      << "permuted-but-identical game must hit the cache";

  // Same solve, reported in the caller's (swapped) action order.
  const core::SolveReport a = core::report_from_json(cold.at("report"));
  const core::SolveReport b = core::report_from_json(hit.at("report"));
  EXPECT_EQ(b.game_name, "swapped bos");
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t s = 0; s < a.samples.size(); ++s) {
    EXPECT_EQ(a.samples[s].p[0], b.samples[s].p[1]);
    EXPECT_EQ(a.samples[s].p[1], b.samples[s].p[0]);
    EXPECT_EQ(a.samples[s].q[0], b.samples[s].q[1]);
    EXPECT_EQ(a.samples[s].q[1], b.samples[s].q[0]);
    EXPECT_EQ(a.samples[s].is_nash, b.samples[s].is_nash);
  }
}

TEST(ServeEndToEnd, LoadSheddingReturnsRetryAfterInsteadOfQueueing) {
  // A watermark of zero sheds every solve that is not answered by the cache:
  // the deterministic way to exercise the queue-full path.
  ServeOptions options;
  options.admission.max_queue_depth = 0;
  options.admission.retry_after_s = 0.25;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  const util::Json shed =
      client.request(solve_line(game::battle_of_sexes(), 9, "exact-sa"));
  ASSERT_FALSE(shed.at("ok").as_bool());
  EXPECT_EQ(shed.at("error").at("code").as_string(), "overloaded");
  EXPECT_GE(shed.at("retry_after_s").as_number(), 0.25);
  EXPECT_EQ(shed.at("id").as_number(), 9.0);

  const util::Json stats = client.request("{\"method\":\"stats\"}");
  EXPECT_EQ(
      stats.at("stats").at("admission").at("shed_queue_full").as_number(),
      1.0);
  EXPECT_EQ(stats.at("stats").at("served").at("jobs_submitted").as_number(),
            0.0);
}

TEST(ServeEndToEnd, PerConnectionInflightCapSheds) {
  ServeOptions options;
  options.admission.per_connection_inflight = 1;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  // Pipeline two solves without waiting: the first occupies the connection's
  // single in-flight slot (a slow hardware solve), the second must shed.
  util::Rng rng(7);
  const game::BimatrixGame big = game::random_integer_game(12, 12, rng);
  client.send_line(solve_line(big, 1, "hardware-sa", 8, 20000));
  client.send_line(solve_line(big, 2, "hardware-sa", 8, 20000, 8));

  // The shed response arrives first (the solve is still running).
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const util::Json shed = util::Json::parse(line);
  ASSERT_FALSE(shed.at("ok").as_bool()) << line;
  EXPECT_EQ(shed.at("id").as_number(), 2.0);
  EXPECT_EQ(shed.at("error").at("code").as_string(), "overloaded");
  EXPECT_GT(shed.at("retry_after_s").as_number(), 0.0);

  ASSERT_TRUE(client.recv_line(line));
  const util::Json solved = util::Json::parse(line);
  EXPECT_TRUE(solved.at("ok").as_bool()) << line;
  EXPECT_EQ(solved.at("id").as_number(), 1.0);
}

TEST(ServeEndToEnd, CoalescedDuplicatesStillRespectTheConnectionCap) {
  // Duplicates of an in-flight solve occupy waiter slots and output buffers,
  // so they must not bypass the per-connection in-flight cap.
  ServeOptions options;
  options.admission.per_connection_inflight = 1;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  util::Rng rng(17);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  client.send_line(solve_line(big, 1, "hardware-sa", 6, 20000));
  client.send_line(solve_line(big, 2, "hardware-sa", 6, 20000));  // identical

  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const util::Json shed = util::Json::parse(line);
  ASSERT_FALSE(shed.at("ok").as_bool()) << line;
  EXPECT_EQ(shed.at("id").as_number(), 2.0);
  EXPECT_EQ(shed.at("error").at("code").as_string(), "overloaded");

  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool()) << line;
}

TEST(ServeEndToEnd, MalformedRequestsGetStructuredErrors) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const util::Json not_json = client.request("this is not json");
  ASSERT_FALSE(not_json.at("ok").as_bool());
  EXPECT_EQ(not_json.at("error").at("code").as_string(), "bad_request");

  const util::Json bad_method =
      client.request("{\"method\":\"frobnicate\",\"id\":3}");
  ASSERT_FALSE(bad_method.at("ok").as_bool());
  EXPECT_EQ(bad_method.at("error").at("code").as_string(), "bad_request");

  const util::Json no_game = client.request("{\"method\":\"solve\"}");
  ASSERT_FALSE(no_game.at("ok").as_bool());
  EXPECT_NE(no_game.at("error").at("message").as_string().find("game"),
            std::string::npos);

  const util::Json ragged = client.request(
      R"({"method":"solve","id":7,"game":{"m":[[1,2],[3]],"n":[[1,2],[3,4]]}})");
  ASSERT_FALSE(ragged.at("ok").as_bool());
  EXPECT_EQ(ragged.at("error").at("code").as_string(), "bad_request");
  // The id-echo contract holds on error responses too (pipelining clients
  // correlate structured errors back to the failing request).
  EXPECT_EQ(ragged.at("id").as_number(), 7.0);

  // Unknown backend: the message names the registered keys (self-correcting
  // clients), and the connection keeps serving afterwards.
  const util::Json unknown = client.request(
      solve_line(game::battle_of_sexes(), 4, "quantum-oracle"));
  ASSERT_FALSE(unknown.at("ok").as_bool());
  EXPECT_EQ(unknown.at("error").at("code").as_string(), "bad_request")
      << "unknown backend is the client's mistake, not a server fault";
  EXPECT_NE(unknown.at("error").at("message").as_string().find("hardware-sa"),
            std::string::npos);

  const util::Json ok =
      client.request(solve_line(game::battle_of_sexes(), 5, "exact-sa"));
  EXPECT_TRUE(ok.at("ok").as_bool());
}

TEST(ServeEndToEnd, StatusReportsQueueDepthAndDrainFlag) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());

  const util::Json response = client.request("{\"method\":\"status\"}");
  ASSERT_TRUE(response.at("ok").as_bool());
  const util::Json& status = response.at("status");
  EXPECT_FALSE(status.at("draining").as_bool());
  EXPECT_EQ(status.at("connections").as_number(), 1.0);
  EXPECT_EQ(status.at("pending_solves").as_number(), 0.0);
  EXPECT_GE(status.at("service").at("threads").as_number(), 1.0);
}

TEST(ServeEndToEnd, GracefulDrainFinishesInFlightWorkAndRejectsNewSolves) {
  ServeOptions options;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  // A slow solve goes in flight, then the drain is requested (the SIGTERM
  // path in nash_serve calls exactly this), then another solve arrives.
  util::Rng rng(11);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  client.send_line(solve_line(big, 1, "hardware-sa", 6, 20000));
  // Status is answered synchronously on the same connection, so once its
  // response is here the solve is committed to the queue.
  ASSERT_EQ(client.request("{\"method\":\"status\"}")
                .at("status")
                .at("pending_solves")
                .as_number(),
            1.0);
  fixture.server().request_stop();
  // Wait until the poll loop observed the stop before posting the late solve
  // (otherwise it could still be admitted — request_stop is asynchronous).
  for (;;) {
    if (client.request("{\"method\":\"status\"}")
            .at("status")
            .at("draining")
            .as_bool())
      break;
  }
  client.send_line(solve_line(big, 2, "exact-sa", 2, 200));

  // Both responses arrive before the server closes the connection: the
  // in-flight solve completes, the late one is refused as draining.
  std::string line;
  util::Json by_id[3];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.recv_line(line)) << "connection closed early";
    const util::Json response = util::Json::parse(line);
    const int id = static_cast<int>(response.at("id").as_number());
    ASSERT_TRUE(id == 1 || id == 2);
    by_id[id] = response;
  }
  EXPECT_TRUE(by_id[1].at("ok").as_bool()) << by_id[1].dump();
  ASSERT_FALSE(by_id[2].at("ok").as_bool());
  EXPECT_EQ(by_id[2].at("error").at("code").as_string(), "draining");
  EXPECT_GT(by_id[2].at("retry_after_s").as_number(), 0.0);

  // ... then the server closes the connection and run() returns.
  EXPECT_FALSE(client.recv_line(line));
  fixture.stop();
  EXPECT_EQ(stat(fixture.server(), "served", "solves_ok"), 1.0);
  EXPECT_EQ(stat(fixture.server(), "served", "errors"), 1.0);
}

TEST(ServeEndToEnd, IdenticalInFlightSolvesAreCoalescedOntoOneJob) {
  ServeOptions options;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  util::Rng rng(13);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  // Two identical slow solves pipelined back to back: the second must attach
  // to the first job, not submit a duplicate.
  client.send_line(solve_line(big, 1, "hardware-sa", 6, 20000));
  client.send_line(solve_line(big, 2, "hardware-sa", 6, 20000));

  std::string line;
  util::Json responses[2];
  for (auto& response : responses) {
    ASSERT_TRUE(client.recv_line(line));
    response = util::Json::parse(line);
    ASSERT_TRUE(response.at("ok").as_bool()) << line;
  }
  EXPECT_EQ(responses[0].at("report").dump(), responses[1].at("report").dump());

  const util::Json stats = client.request("{\"method\":\"stats\"}");
  EXPECT_EQ(stats.at("stats").at("served").at("jobs_submitted").as_number(),
            1.0);
  EXPECT_EQ(stats.at("stats").at("admission").at("coalesced").as_number(),
            1.0);
}

// ---- threaded gateway (epoll event loops) -----------------------------------

TEST(ServeThreaded, ConcurrentSolvesAcrossConnectionsAllSucceed) {
  ServeOptions options;
  options.serve_threads = 4;
  ServerFixture fixture(options);

  constexpr int kClients = 8;
  constexpr int kSolvesEach = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      LineClient client;
      if (!client.connect_to(fixture.port())) return;
      const game::BimatrixGame g = game::battle_of_sexes();
      for (int r = 0; r < kSolvesEach; ++r) {
        // Distinct seeds: every solve is a genuine job, no cache/coalesce.
        if (!client.send_line(solve_line(g, r, "exact-sa", 4, 300,
                                         1000 + c * 100 + r)))
          return;
        std::string response;
        if (!client.recv_line(response)) return;
        if (util::Json::parse(response).at("ok").as_bool()) ok_count++;
      }
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kSolvesEach);

  fixture.stop();
  EXPECT_EQ(stat(fixture.server(), "served", "solves_ok"),
            static_cast<double>(kClients * kSolvesEach));
  EXPECT_EQ(stat(fixture.server(), "served", "errors"), 0.0);
}

TEST(ServeThreaded, IdenticalSolvesCoalesceAcrossWorkerLoops) {
  // Connections are sharded round-robin, so three clients land on three
  // different event loops; their identical in-flight solves must still
  // coalesce onto one SolverService job through the shared gate.
  ServeOptions options;
  options.serve_threads = 4;
  options.service_threads = 1;
  ServerFixture fixture(options);

  util::Rng rng(23);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  const std::string line = solve_line(big, 1, "hardware-sa", 6, 20000);

  TestClient first;
  first.connect_to(fixture.port());
  first.send_line(line);
  // The solve is committed once status (same connection, ordered) shows it.
  for (;;) {
    if (first.request("{\"method\":\"status\"}")
            .at("status")
            .at("pending_solves")
            .as_number() == 1.0)
      break;
  }

  // Send both duplicates before waiting on either — a blocking request()
  // would only let the second one leave after the job completed (and hit the
  // cache instead of coalescing).
  TestClient second, third;
  second.connect_to(fixture.port());
  third.connect_to(fixture.port());
  second.send_line(line);
  third.send_line(line);
  std::string response;
  ASSERT_TRUE(second.recv_line(response));
  const util::Json r2 = util::Json::parse(response);
  ASSERT_TRUE(third.recv_line(response));
  const util::Json r3 = util::Json::parse(response);
  ASSERT_TRUE(first.recv_line(response));
  const util::Json r1 = util::Json::parse(response);

  ASSERT_TRUE(r1.at("ok").as_bool()) << response;
  ASSERT_TRUE(r2.at("ok").as_bool()) << r2.dump();
  ASSERT_TRUE(r3.at("ok").as_bool()) << r3.dump();
  EXPECT_EQ(r1.at("report").dump(), r2.at("report").dump());
  EXPECT_EQ(r1.at("report").dump(), r3.at("report").dump());

  fixture.stop();
  EXPECT_EQ(stat(fixture.server(), "served", "jobs_submitted"), 1.0);
  EXPECT_EQ(stat(fixture.server(), "served", "coalesced"), 2.0);
}

TEST(ServeThreaded, DrainFinishesInFlightWorkOnEveryLoop) {
  ServeOptions options;
  options.serve_threads = 3;
  options.service_threads = 2;
  ServerFixture fixture(options);

  // One client per event loop (round-robin sharding), each with its own
  // slow solve in flight (distinct seeds — no coalescing).
  util::Rng rng(29);
  const game::BimatrixGame big = game::random_integer_game(8, 8, rng);
  TestClient clients[3];
  for (int c = 0; c < 3; ++c) {
    clients[c].connect_to(fixture.port());
    clients[c].send_line(
        solve_line(big, c, "hardware-sa", 4, 8000, 9000 + c));
  }
  for (;;) {
    if (clients[0]
            .request("{\"method\":\"status\"}")
            .at("status")
            .at("pending_solves")
            .as_number() == 3.0)
      break;
  }

  fixture.server().request_stop();
  // Every loop delivers its connection's final report, then closes.
  for (int c = 0; c < 3; ++c) {
    std::string response;
    ASSERT_TRUE(clients[c].recv_line(response)) << "loop " << c
                                                << " closed early";
    const util::Json j = util::Json::parse(response);
    EXPECT_TRUE(j.at("ok").as_bool()) << response;
    EXPECT_EQ(j.at("id").as_number(), static_cast<double>(c));
    EXPECT_FALSE(clients[c].recv_line(response)) << "expected EOF after drain";
  }
  fixture.stop();
  EXPECT_EQ(stat(fixture.server(), "served", "solves_ok"), 3.0);
}

// ---- binary framing ---------------------------------------------------------

TEST(ServeFraming, BinaryAndJsonRoundTripByteIdenticalReports) {
  ServeOptions options;
  options.serve_threads = 2;
  ServerFixture fixture(options);
  const game::BimatrixGame g = game::bird_game();

  TestClient json_client;
  json_client.connect_to(fixture.port());
  LineClient binary;
  ASSERT_TRUE(binary.connect_to(fixture.port())) << std::strerror(errno);

  // JSON cold solve, then the identical solve over binary framing: answered
  // from the cache with the byte-for-bytes same report JSON.
  const util::Json cold =
      json_client.request(solve_line(g, 1, "hardware-sa", 4, 400, 77));
  ASSERT_TRUE(cold.at("ok").as_bool()) << cold.dump();
  ASSERT_TRUE(binary.send_frame(kFrameSolve,
                                solve_line(g, 2, "hardware-sa", 4, 400, 77)));
  unsigned char type = 0;
  std::string payload;
  ASSERT_TRUE(binary.recv_frame(type, payload));
  EXPECT_EQ(type, kFrameFinal);
  const util::Json warm = util::Json::parse(payload);
  ASSERT_TRUE(warm.at("ok").as_bool()) << payload;
  EXPECT_TRUE(warm.at("cached").as_bool());
  EXPECT_EQ(warm.at("report").dump(), cold.at("report").dump());

  // The reverse direction: binary cold solve, JSON cached replay.
  ASSERT_TRUE(binary.send_frame(kFrameSolve,
                                solve_line(g, 3, "hardware-sa", 4, 400, 78)));
  ASSERT_TRUE(binary.recv_frame(type, payload));
  ASSERT_EQ(type, kFrameFinal);
  const util::Json cold2 = util::Json::parse(payload);
  ASSERT_TRUE(cold2.at("ok").as_bool()) << payload;
  EXPECT_FALSE(cold2.at("cached").as_bool());
  const util::Json warm2 =
      json_client.request(solve_line(g, 4, "hardware-sa", 4, 400, 78));
  ASSERT_TRUE(warm2.at("ok").as_bool());
  EXPECT_TRUE(warm2.at("cached").as_bool());
  EXPECT_EQ(warm2.at("report").dump(), cold2.at("report").dump());

  // Non-solve methods ride the frame type with an empty payload.
  ASSERT_TRUE(binary.send_frame(kFrameStatus, ""));
  ASSERT_TRUE(binary.recv_frame(type, payload));
  EXPECT_EQ(type, kFrameFinal);
  EXPECT_TRUE(util::Json::parse(payload).at("ok").as_bool());
  ASSERT_TRUE(binary.send_frame(kFrameListBackends, ""));
  ASSERT_TRUE(binary.recv_frame(type, payload));
  EXPECT_FALSE(util::Json::parse(payload).at("backends").size() == 0);
}

TEST(ServeFraming, MalformedFrameHeaderGetsStructuredErrorThenClose) {
  ServerFixture fixture;
  LineClient client;
  ASSERT_TRUE(client.connect_to(fixture.port())) << std::strerror(errno);

  // The magic's first byte negotiates binary framing; the second is wrong, so
  // the stream can never resynchronise — expect one structured error frame,
  // then a close.
  const char junk[8] = {static_cast<char>(0xCE), 0x00, 0x01, 0x01, 0, 0, 0, 0};
  ASSERT_TRUE(client.send_raw(junk, sizeof junk));
  unsigned char type = 0;
  std::string payload;
  ASSERT_TRUE(client.recv_frame(type, payload));
  EXPECT_EQ(type, kFrameError);
  const util::Json j = util::Json::parse(payload);
  EXPECT_FALSE(j.at("ok").as_bool());
  EXPECT_EQ(j.at("error").at("code").as_string(), "bad_request");
  EXPECT_FALSE(client.recv_frame(type, payload)) << "expected close";
}

// ---- anytime progress streaming ---------------------------------------------

TEST(ServeAnytime, ProgressFramesStreamBeforeTheFinalReport) {
  // One service worker + one-lane batches make the unit schedule serial:
  // 4 runs → 4 units → exactly one interim frame per non-final unit.
  ServeOptions options;
  options.service_threads = 1;
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  const game::BimatrixGame g = game::bird_game();
  client.send_line(solve_line(g, 1, "exact-sa", 4, 300, 555,
                              ",\"progress\":true,\"batch_lanes\":1"));

  int progress_seen = 0;
  double last_completed = 0.0;
  for (;;) {
    std::string response;
    ASSERT_TRUE(client.recv_line(response));
    const util::Json j = util::Json::parse(response);
    ASSERT_TRUE(j.at("ok").as_bool()) << response;
    EXPECT_EQ(j.at("id").as_number(), 1.0);
    if (const util::Json* p = j.find("progress")) {
      progress_seen++;
      EXPECT_EQ(p->at("units_total").as_number(), 4.0);
      EXPECT_GT(p->at("units_completed").as_number(), last_completed)
          << "interim frames must be monotone in units_completed";
      last_completed = p->at("units_completed").as_number();
      EXPECT_GE(p->at("elapsed_s").as_number(), 0.0);
      continue;
    }
    // The final frame always follows the interim ones.
    EXPECT_FALSE(j.at("cached").as_bool());
    const core::SolveReport report =
        core::report_from_json(j.at("report"));
    EXPECT_EQ(report.samples.size(), 4u);
    EXPECT_FALSE(report.degraded);
    break;
  }
  EXPECT_EQ(progress_seen, 3);

  // A plain solve (no "progress") streams nothing extra — the cached replay
  // is its immediate, single response.
  const util::Json replay =
      client.request(solve_line(g, 2, "exact-sa", 4, 300, 555,
                                ",\"batch_lanes\":1"));
  EXPECT_TRUE(replay.at("cached").as_bool());

  fixture.stop();
  EXPECT_EQ(stat(fixture.server(), "served", "progress_frames"), 3.0);
}

// ---- pipelining fairness ----------------------------------------------------

TEST(ServeFairness, PipelinedBurstIsBoundedPerWakeup) {
  ServeOptions options;
  options.max_requests_per_wakeup = 2;
  ServerFixture fixture(options);
  LineClient client;
  ASSERT_TRUE(client.connect_to(fixture.port())) << std::strerror(errno);

  // One 8-request burst in a single segment: the loop may dequeue at most two
  // per wakeup, deferring the rest to its backlog — every response still
  // arrives, and the deferral counter proves the bound engaged.
  std::string burst;
  for (int i = 0; i < 8; ++i)
    burst += "{\"method\":\"status\",\"id\":" + std::to_string(i) + "}\n";
  ASSERT_TRUE(client.send_raw(burst.data(), burst.size()));
  for (int i = 0; i < 8; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line)) << "response " << i;
    EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());
  }
  fixture.stop();
  EXPECT_EQ(stat(fixture.server(), "served", "lines"), 8.0);
  EXPECT_GE(stat(fixture.server(), "served", "fair_deferrals"), 1.0);
}

// ---- the `stats` payload and its `metrics` mirrors ---------------------------

/// Every section of the `stats` payload with its keys, in wire order.
const std::vector<std::pair<std::string, std::vector<std::string>>>
    kStatsSchema = {
        {"cache",
         {"hits", "misses", "insertions", "evictions", "oversize_rejects",
          "entries", "bytes", "byte_budget"}},
        {"admission",
         {"admitted", "shed_queue_full", "shed_connection_cap", "coalesced"}},
        {"store",
         {"enabled", "hits", "misses", "appends", "tombstones", "evictions",
          "oversize_rejects", "compactions", "entries", "segments",
          "live_raw_bytes", "live_value_bytes", "live_stored_bytes",
          "dead_stored_bytes", "compressed_records", "stored_records",
          "corrupt_records_skipped", "torn_tail_truncations", "byte_budget",
          "compression_ratio"}},
        {"served",
         {"lines", "solves_ok", "cache_hits", "coalesced", "errors",
          "jobs_submitted", "progress_frames", "fair_deferrals",
          "write_stalls", "injected_disconnects", "overflow_closed",
          "uncached_reports"}}};

struct Mirror {
  const char* section;
  const char* key;
  const char* instrument;
  bool gauge;
};

/// Every `stats` number the metrics endpoint exports too.
const Mirror kMirrors[] = {
    {"cache", "hits", "cnash_cache_hits_total", false},
    {"cache", "misses", "cnash_cache_misses_total", false},
    {"cache", "insertions", "cnash_cache_insertions_total", false},
    {"cache", "evictions", "cnash_cache_evictions_total", false},
    {"cache", "oversize_rejects", "cnash_cache_oversize_rejects_total", false},
    {"cache", "entries", "cnash_cache_entries", true},
    {"cache", "bytes", "cnash_cache_bytes", true},
    {"cache", "byte_budget", "cnash_cache_byte_budget_bytes", true},
    {"admission", "admitted", "cnash_admission_admitted_total", false},
    {"admission", "shed_queue_full", "cnash_admission_shed_queue_full_total",
     false},
    {"admission", "shed_connection_cap",
     "cnash_admission_shed_connection_cap_total", false},
    {"admission", "coalesced", "cnash_admission_coalesced_total", false},
    {"store", "enabled", "cnash_store_enabled", true},
    {"store", "hits", "cnash_store_hits_total", false},
    {"store", "misses", "cnash_store_misses_total", false},
    {"store", "appends", "cnash_store_appends_total", false},
    {"store", "evictions", "cnash_store_evictions_total", false},
    {"store", "compactions", "cnash_store_compactions_total", false},
    {"store", "entries", "cnash_store_entries", true},
    {"store", "segments", "cnash_store_segments", true},
    {"store", "live_stored_bytes", "cnash_store_live_stored_bytes", true},
    {"served", "lines", "cnash_requests_total", false},
    {"served", "solves_ok", "cnash_served_solves_ok_total", false},
    {"served", "cache_hits", "cnash_served_cache_hits_total", false},
    {"served", "coalesced", "cnash_served_coalesced_total", false},
    {"served", "errors", "cnash_served_errors_total", false},
    {"served", "jobs_submitted", "cnash_served_jobs_submitted_total", false},
    {"served", "progress_frames", "cnash_served_progress_frames_total", false},
    {"served", "fair_deferrals", "cnash_served_fair_deferrals_total", false},
    {"served", "write_stalls", "cnash_served_write_stalls_total", false},
    {"served", "injected_disconnects",
     "cnash_served_injected_disconnects_total", false},
    {"served", "overflow_closed", "cnash_served_overflow_closed_total", false},
    {"served", "uncached_reports", "cnash_served_uncached_reports_total",
     false},
};

class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = "/tmp/cnash_serve_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    dir_ = made ? made : "";
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

TEST(ServeStats, FixedScenarioPinsThePayloadAndItsMetricsMirrors) {
  ScratchDir dir;
  ServeOptions options;
  options.service_threads = 2;
  options.admission.per_connection_inflight = 2;
  options.store_dir = dir.path();
  ServerFixture fixture(options);
  TestClient client;
  client.connect_to(fixture.port());

  // A miss, then the same solve as a hit.
  const game::BimatrixGame g = game::battle_of_sexes();
  ASSERT_FALSE(client.request(solve_line(g, 1)).at("cached").as_bool());
  ASSERT_TRUE(client.request(solve_line(g, 2)).at("cached").as_bool());

  // One write on a second connection: a slow solve, its duplicate (coalesced:
  // the connection's second in-flight slot) and a distinct solve that finds
  // both slots taken (shed at the connection cap, answered first).
  util::Rng rng(31);
  const game::BimatrixGame big = game::random_integer_game(10, 10, rng);
  std::string burst;
  for (const std::string& request :
       {solve_line(big, 10, "hardware-sa", 6, 20000),
        solve_line(big, 11, "hardware-sa", 6, 20000),
        solve_line(big, 12, "hardware-sa", 6, 20000, 8)})
    burst += request + "\n";
  LineClient pipeliner;
  ASSERT_TRUE(pipeliner.connect_to(fixture.port())) << std::strerror(errno);
  ASSERT_TRUE(pipeliner.send_raw(burst.data(), burst.size()));
  std::string line;
  ASSERT_TRUE(pipeliner.recv_line(line));
  const util::Json shed = util::Json::parse(line);
  EXPECT_EQ(shed.at("id").as_number(), 12.0) << line;
  EXPECT_EQ(shed.at("error").at("code").as_string(), "overloaded");
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(pipeliner.recv_line(line));
    EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool()) << line;
  }

  // A malformed line, then a solve cut off by its deadline (degraded, so
  // never cached).
  EXPECT_FALSE(client.request("this is not json").at("ok").as_bool());
  const game::BimatrixGame wide = game::random_integer_game(64, 64, rng);
  const util::Json degraded = client.request(solve_line(
      wide, 20, "exact-sa", 32, 5000, 12,
      ",\"deadline_s\":0.001,\"batch_lanes\":1"));
  ASSERT_TRUE(degraded.at("ok").as_bool()) << degraded.dump();
  ASSERT_TRUE(degraded.at("report").at("degraded").as_bool());

  const util::Json stats = client.request("{\"method\":\"stats\"}").at("stats");
  ASSERT_EQ(stats.members().size(), kStatsSchema.size());
  for (std::size_t s = 0; s < kStatsSchema.size(); ++s) {
    const auto& [section, keys] = kStatsSchema[s];
    ASSERT_EQ(stats.members()[s].first, section);
    const util::Json& body = stats.members()[s].second;
    ASSERT_EQ(body.members().size(), keys.size()) << section;
    for (std::size_t k = 0; k < keys.size(); ++k)
      EXPECT_EQ(body.members()[k].first, keys[k]) << section;
  }

  const util::Json& cache = stats.at("cache");
  const util::Json& admission = stats.at("admission");
  const util::Json& served = stats.at("served");
  EXPECT_EQ(cache.at("hits").as_number(), 1.0);
  EXPECT_EQ(admission.at("coalesced").as_number(), 1.0);
  EXPECT_EQ(admission.at("shed_connection_cap").as_number(), 1.0);
  EXPECT_EQ(served.at("jobs_submitted").as_number(), 3.0);
  EXPECT_EQ(served.at("errors").as_number(), 2.0);
  EXPECT_EQ(served.at("uncached_reports").as_number(), 1.0);
  EXPECT_EQ(stats.at("store").at("appends").as_number(), 2.0);
  // Every admitted solve is either coalesced onto a job or submits one.
  EXPECT_EQ(served.at("coalesced").as_number(),
            admission.at("coalesced").as_number());
  EXPECT_EQ(served.at("jobs_submitted").as_number(),
            admission.at("admitted").as_number() -
                admission.at("coalesced").as_number());

  const util::Json metrics =
      client.request("{\"method\":\"metrics\"}").at("metrics");
  for (const Mirror& m : kMirrors) {
    const util::Json& value = stats.at(m.section).at(m.key);
    double expected = value.is_bool() ? (value.as_bool() ? 1.0 : 0.0)
                                      : value.as_number();
    // The metrics request is itself one more request line.
    if (std::string(m.instrument) == "cnash_requests_total") expected += 1.0;
    EXPECT_EQ(metrics.at(m.gauge ? "gauges" : "counters")
                  .at(m.instrument)
                  .as_number(),
              expected)
        << m.section << "." << m.key;
  }
}

// ---- protocol-abuse guards --------------------------------------------------

TEST(ServeGuards, OverlongLineGetsBadRequestThenClose) {
  ServeOptions options;
  options.max_line_bytes = 64;
  ServerFixture fixture(options);
  LineClient client;
  ASSERT_TRUE(client.connect_to(fixture.port())) << std::strerror(errno);

  const std::string unterminated(200, 'x');
  ASSERT_TRUE(client.send_raw(unterminated.data(), unterminated.size()));
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const util::Json j = util::Json::parse(line);
  EXPECT_FALSE(j.at("ok").as_bool());
  EXPECT_EQ(j.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(j.at("error").at("message").as_string().find("64 bytes"),
            std::string::npos)
      << line;
  EXPECT_FALSE(client.recv_line(line)) << "expected close";
}

TEST(ServeGuards, OversizedSolveGetsBadRequestAndTheGatewayKeepsServing) {
  ServerFixture fixture;
  TestClient client;
  client.connect_to(fixture.port());
  // 2^53 is the largest run count the wire can carry; a worker that sized a
  // job from it would take the whole gateway down.
  const std::size_t wire_max = std::size_t{1} << 53;
  for (const char* backend : {"hardware-sa", "dwave-2000q6"}) {
    const util::Json huge = client.request(
        solve_line(game::battle_of_sexes(), 1, backend, wire_max));
    ASSERT_FALSE(huge.at("ok").as_bool()) << backend;
    EXPECT_EQ(huge.at("error").at("code").as_string(), "bad_request")
        << backend;
    EXPECT_EQ(huge.at("id").as_number(), 1.0);
  }
  const util::Json ensemble = client.request(
      solve_line(game::battle_of_sexes(), 2, "exact-sa", 4, 300, 7,
                 ",\"sa_mode\":\"replica-exchange\",\"replicas\":" +
                     std::to_string(wire_max)));
  ASSERT_FALSE(ensemble.at("ok").as_bool());
  EXPECT_EQ(ensemble.at("error").at("code").as_string(), "bad_request");
  // Payoffs the chip model cannot hold: 10^6 codes as 10^6 cells per
  // element (minutes of programming, gigabytes of memory), 10^12 does not
  // fit the mapping's 32-bit elements at all.
  for (const double payoff : {1e6, 1e12}) {
    const game::BimatrixGame g(la::Matrix{{payoff, 0}, {0, 1}},
                               la::Matrix{{1, 0}, {0, 2}}, "huge payoff");
    const util::Json huge_payoff =
        client.request(solve_line(g, 3, "hardware-sa", 1, 10));
    ASSERT_FALSE(huge_payoff.at("ok").as_bool()) << payoff;
    EXPECT_EQ(huge_payoff.at("error").at("code").as_string(), "bad_request")
        << payoff;
  }

  // An SA solve with no iterations, in either SA mode, on every SA backend.
  for (const char* backend :
       {"exact-sa", "hardware-sa", "hardware-sa-tiled", "resilient"}) {
    for (const char* mode :
         {"", ",\"sa_mode\":\"replica-exchange\",\"replicas\":2"}) {
      const util::Json none = client.request(
          solve_line(game::battle_of_sexes(), 6, backend, 1, 0, 7, mode));
      ASSERT_FALSE(none.at("ok").as_bool()) << backend << mode;
      EXPECT_EQ(none.at("error").at("code").as_string(), "bad_request")
          << backend << mode;
    }
  }
  // A replica ensemble whose chips together exceed the one-chip cell cap:
  // 9 replicas of a 2^22-cell array.
  const game::BimatrixGame wide(la::Matrix(1, 1, 4194304.0), la::Matrix(1, 1),
                                "wide");
  const util::Json wide_ensemble = client.request(solve_line(
      wide, 7, "hardware-sa", 1, 10, 7,
      ",\"intervals\":1,\"sa_mode\":\"replica-exchange\",\"replicas\":9"));
  ASSERT_FALSE(wide_ensemble.at("ok").as_bool());
  EXPECT_EQ(wide_ensemble.at("error").at("code").as_string(), "bad_request");
  // Exhaustive support enumeration of a 64×64 game: C(128, 64) − 1 support
  // pairs in one unit no deadline can stop.
  util::Rng rng(64);
  const util::Json support_enum = client.request(solve_line(
      game::random_covariant_game(64, 64, 0.0, rng), 8, "support-enum", 4,
      300, 7, ",\"deadline_s\":1"));
  ASSERT_FALSE(support_enum.at("ok").as_bool());
  EXPECT_EQ(support_enum.at("error").at("code").as_string(), "bad_request");

  const util::Json ok = client.request(solve_line(game::battle_of_sexes(), 4));
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_EQ(ok.at("report").at("samples").size(), 4u);
  const util::Json hw =
      client.request(solve_line(game::battle_of_sexes(), 5, "hardware-sa"));
  EXPECT_TRUE(hw.at("ok").as_bool());
  EXPECT_EQ(hw.at("report").at("samples").size(), 4u);
}

TEST(ServeGuards, NonReadingPipelinerIsAbortedAtTheOutputCap) {
  ServeOptions options;
  options.max_output_bytes = 64u << 10;
  ServerFixture fixture(options);
  // Each response is several KiB of Prometheus text.
  const std::string scrape = "{\"method\":\"metrics\",\"format\":\"text\"}";

  // A peer that reads its responses never trips the cap.
  TestClient reader;
  reader.connect_to(fixture.port());
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(reader.request(scrape).at("ok").as_bool());

  // A peer that pipelines 2000 scrapes (over 10 MB of responses, more than
  // the socket buffers hold) and never reads fills the server's output
  // buffer past the cap.
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += scrape + "\n";
  LineClient flooder;
  ASSERT_TRUE(flooder.connect_to(fixture.port())) << std::strerror(errno);
  ASSERT_TRUE(flooder.send_raw(burst.data(), burst.size()));

  double closed = 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (closed == 0.0 && std::chrono::steady_clock::now() < deadline)
    closed = reader.request("{\"method\":\"stats\"}")
                 .at("stats")
                 .at("served")
                 .at("overflow_closed")
                 .as_number();
  ASSERT_EQ(closed, 1.0);
  // The aborted connection is torn down: its reads end.
  std::string line;
  while (flooder.recv_line(line)) {
  }
}

}  // namespace
}  // namespace cnash::serve

// The three timed workloads. Each generates its inputs from the seed, sets up
// the system under test (timing every set-up), drives it closed-loop for the
// requested time while checking every response, and hands the captured
// request/response pairs back for the in-process replay checks.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/backend.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/parse.hpp"
#include "game/random_games.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cnash::util::Json;
using cnash::util::Rng;

/// Ops every workload completes at least, so that the p90 has ten samples
/// beyond it even when the run is short.
constexpr std::size_t kMinOps = 110;
/// Set-ups timed per run; setup_s is their median. The host's speed drifts
/// over seconds, so a first batch runs before the timed phase and the rest
/// after it, spreading the samples over the whole run.
constexpr std::size_t kSetups = 40;
constexpr std::size_t kSetupsBefore = kSetups / 2;

/// Measurement window: `preferred` seconds (about 100 ops or more on the
/// serve workloads, about 40 jobs on solve_batch), shortened so that a short
/// run still has six.
double window_length(double preferred, double seconds) {
  return std::min(preferred, seconds / 6.0);
}

/// One class of solve request in a workload's cyclic mix.
struct SolveSpec {
  const char* backend;
  std::size_t actions;
  std::size_t runs;
  std::size_t iterations;
  bool integer_payoffs = false;  // hardware-mappable integer game
  bool replica_exchange = false;
  bool table1 = false;  // a paper Table 1 instance instead of a random game
  std::size_t tile_rows = 0;
  std::size_t tile_cols = 0;
};

Json mix_json(const std::vector<SolveSpec>& mix) {
  Json out = Json::array();
  for (const SolveSpec& s : mix) {
    Json& j = out.push(Json::object());
    j.set("backend", s.backend);
    if (s.table1)
      j.set("game", "paper Table 1 instances, in rotation");
    else
      j.set("actions", s.actions);
    j.set("payoffs", s.table1            ? "paper"
                     : s.integer_payoffs ? "integer [0,7]"
                                         : "covariant normal, rho 0");
    j.set("runs", s.runs);
    if (s.iterations) j.set("iterations", s.iterations);
    if (s.replica_exchange) j.set("sa_mode", "replica-exchange, 4 replicas");
    if (s.tile_rows) {
      j.set("tile_rows", s.tile_rows);
      j.set("tile_cols", s.tile_cols);
    }
  }
  return out;
}

const std::vector<cnash::game::BenchmarkInstance>& table1() {
  static const std::vector<cnash::game::BenchmarkInstance> instances =
      cnash::game::paper_benchmarks();
  return instances;
}

cnash::game::BimatrixGame make_game(const SolveSpec& s, Rng& rng,
                                    std::size_t rotation,
                                    const std::string& name) {
  if (s.table1) return table1()[rotation % table1().size()].game;
  const cnash::game::BimatrixGame g =
      s.integer_payoffs
          ? cnash::game::random_integer_game(s.actions, s.actions, rng)
          : cnash::game::random_covariant_game(s.actions, s.actions, 0.0, rng);
  return cnash::game::BimatrixGame(g.payoff1(), g.payoff2(), name);
}

/// Compact JSON solve request, the way a gateway client sends it.
std::string solve_body(const cnash::game::BimatrixGame& g, const SolveSpec& s,
                       std::uint64_t seed, std::uint64_t id) {
  Json b = Json::object();
  b.set("method", "solve");
  b.set("id", static_cast<double>(id));
  b.set("game_text", cnash::game::serialize_game(g));
  b.set("backend", s.backend);
  b.set("runs", s.runs);
  b.set("iterations", s.iterations);
  b.set("seed", static_cast<double>(seed));
  if (s.replica_exchange) {
    b.set("sa_mode", "replica-exchange");
    b.set("replicas", std::size_t{4});
  }
  if (s.tile_rows) {
    b.set("tile_rows", s.tile_rows);
    b.set("tile_cols", s.tile_cols);
  }
  return b.dump();
}

/// Seeds stay below 2^52: the wire carries them as JSON doubles.
std::uint64_t wire_seed(std::uint64_t base, std::uint64_t i) {
  std::uint64_t state = base * 0x9E3779B97F4A7C15ULL + i;
  return cnash::util::splitmix64(state) >> 12;
}

/// Row/column relabeling of a game (same equilibria up to the permutation).
cnash::game::BimatrixGame relabel(const cnash::game::BimatrixGame& g,
                                  Rng& rng) {
  const std::size_t n = g.num_actions1(), m = g.num_actions2();
  std::vector<std::size_t> rp(n), cp(m);
  for (std::size_t i = 0; i < n; ++i) rp[i] = i;
  for (std::size_t j = 0; j < m; ++j) cp[j] = j;
  for (std::size_t i = n; i > 1; --i) std::swap(rp[i - 1], rp[rng.uniform_index(i)]);
  for (std::size_t j = m; j > 1; --j) std::swap(cp[j - 1], cp[rng.uniform_index(j)]);
  cnash::la::Matrix a(n, m), b(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = g.payoff1()(rp[i], cp[j]);
      b(i, j) = g.payoff2()(rp[i], cp[j]);
    }
  return cnash::game::BimatrixGame(a, b, g.name());
}

bool starts_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

void note(WorkloadOutcome& out, std::mutex& mutex, const std::string& problem) {
  std::lock_guard<std::mutex> lock(mutex);
  if (out.problems.size() < 20) out.problems.push_back(problem);
}

std::string make_dir(const RunContext& ctx, const std::string& name) {
  const std::string dir = ctx.work_dir + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Per-thread closed-loop tallies, merged after the timed phase.
struct ClientTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latencies_ms;
  std::vector<double> done_s;
  std::vector<std::uint32_t> op_class;
};

void merge(WorkloadOutcome& out, std::vector<ClientTally>& tallies) {
  for (ClientTally& t : tallies) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    out.latencies_ms.insert(out.latencies_ms.end(), t.latencies_ms.begin(),
                            t.latencies_ms.end());
    out.done_s.insert(out.done_s.end(), t.done_s.begin(), t.done_s.end());
    out.op_class.insert(out.op_class.end(), t.op_class.begin(), t.op_class.end());
  }
}

double hist_number(const Json& histograms, const char* name,
                   const char* field) {
  const Json* h = histograms.find(name);
  if (!h) return std::nan("");
  const Json* v = h->find(field);
  return v && v->is_number() ? v->as_number() : std::nan("");
}

/// Samples the serving process's CPU time at every window edge (the first
/// sample at `start`) until no client is running. The samples delimit the
/// windows the end-to-end medians are taken over.
template <class CpuFn>
void sample_windows(WorkloadOutcome& out, Clock::time_point start,
                    const std::atomic<std::size_t>& running, CpuFn&& cpu_s) {
  out.cpu_samples.push_back({0.0, cpu_s()});
  for (std::size_t k = 1;; ++k) {
    const Clock::time_point edge =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(k * out.window_s));
    while (running.load() > 0 && Clock::now() < edge)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (running.load() == 0) return;
    out.cpu_samples.push_back({seconds_between(start, Clock::now()), cpu_s()});
  }
}

// ---- serve_warm --------------------------------------------------------------

// Report size is set by runs × actions alone (no exact solver whose
// equilibrium count, and so report size, would vary with the seed's games).
const std::vector<SolveSpec> kWarmMix = {
    {"exact-sa", 2, 4, 300},
    {"exact-sa", 4, 16, 300},
    {"exact-sa", 8, 32, 300},
    {"exact-sa", 8, 8, 300},
    {"exact-sa", 16, 8, 300},
    {"exact-sa", 32, 4, 300},
    {"hardware-sa", 8, 2, 300, true},
    {"hardware-sa-tiled", 8, 2, 300, true},
};
constexpr std::size_t kWarmKeys = 48;  // distinct solves (6 per class)
/// One closed-loop client, so a request never waits behind another (the
/// ROADMAP's warm x1-connection cell).
constexpr std::size_t kWarmClients = 1;

// ---- serve_cold --------------------------------------------------------------

// Each percentile must fall inside one cluster of alike latencies rather
// than at the edge between two, where a small shift in the mix or the host
// moves it a lot. With one request outstanding and one solver worker an op's
// latency is its own solve, so the classes sort by cost: six cheap ones
// (0.3-2 ms) fill 40 % of the 15 slots, the four exact-sa 32 slots (4 ms)
// the next 27 %, so the p50 falls 37 % of the way into that cluster; the
// three 16-action hardware slots (31 ms) fill the top 20 %, so the p90
// falls halfway into them.
const std::vector<SolveSpec> kColdMix = {
    {"lemke-howson", 4, 1, 0},
    {"exact-sa", 32, 4, 1000},
    {"hardware-sa", 16, 2, 500, true},
    {"exact-sa", 2, 8, 500},
    {"lemke-howson", 8, 1, 0},
    {"exact-sa", 32, 4, 1000},
    {"hardware-sa", 8, 2, 500, true},
    {"exact-sa", 4, 8, 500},
    {"hardware-sa", 16, 2, 500, true},
    {"lemke-howson", 12, 1, 0},
    {"exact-sa", 32, 4, 1000},
    {"hardware-sa-tiled", 8, 2, 500, true},
    {"exact-sa", 12, 4, 1000},
    {"exact-sa", 32, 4, 1000},
    {"hardware-sa", 16, 2, 500, true},
};

std::string cold_body(std::uint64_t seed, std::uint64_t i) {
  const SolveSpec& s = kColdMix[i % kColdMix.size()];
  Rng rng = Rng(seed).split(i);
  const cnash::game::BimatrixGame g =
      make_game(s, rng, 0, "cold-" + std::to_string(i));
  return solve_body(g, s, wire_seed(seed, i), i);
}

// ---- solve_batch -------------------------------------------------------------

// Sorted by latency the slots run dwave < replica-exchange < four of about
// the same cost (three 32-action hardware jobs and the long exact-sa 32) <
// two 64-action ones, so the p50 lies in the middle of that cluster rather
// than at one of its edges, and the p90 inside the 64-action cluster.
const std::vector<SolveSpec> kBatchMix = {
    {"dwave-advantage41", 0, 32, 0, false, false, true},
    {"hardware-sa", 32, 2, 2000, true},
    {"exact-sa", 32, 8, 40000},
    {"hardware-sa", 64, 2, 2000, true},
    {"hardware-sa-tiled", 64, 2, 2000, true, false, false, 16, 256},
    {"exact-sa", 16, 2, 10000, false, true},
    {"hardware-sa", 32, 2, 2000, true},
    {"hardware-sa-tiled", 32, 2, 2000, true, false, false, 16, 256},
};

std::string batch_body(std::uint64_t seed, std::uint64_t i) {
  const SolveSpec& s = kBatchMix[i % kBatchMix.size()];
  Rng rng = Rng(seed).split(i);
  const cnash::game::BimatrixGame g = make_game(
      s, rng, i / kBatchMix.size(), "batch-" + std::to_string(i));
  return solve_body(g, s, wire_seed(seed, i), i);
}

cnash::core::SolveRequest parse_solve(const std::string& body) {
  cnash::serve::WireRequest w = cnash::serve::parse_request(body);
  return std::move(*w.solve);
}

}  // namespace

// ---- Gateway scrapes -----------------------------------------------------------

GatewayScrape scrape_gateway(Gateway& gateway) {
  GatewayScrape s;
  const Json stats = gateway.query("stats").at("stats");
  const Json& cache = stats.at("cache");
  s.cache_hits = cache.at("hits").as_number();
  s.cache_lookups = s.cache_hits + cache.at("misses").as_number();
  const Json& adm = stats.at("admission");
  s.admission_shed = adm.at("shed_queue_full").as_number() +
                     adm.at("shed_connection_cap").as_number();
  s.admission_decisions = adm.at("admitted").as_number() + s.admission_shed;

  // Means, not the histograms' p50: a p50 is a bucket's lower bound (6.25 %
  // steps) and would read the same value run after run.
  const Json metrics = gateway.query("metrics").at("metrics");
  const Json& h = metrics.at("histograms");
  const auto mean_us = [&](const char* name) {
    return 1e6 * hist_number(h, name, "sum") / hist_number(h, name, "count");
  };
  s.stage_parse_us = mean_us("cnash_stage_parse_seconds");
  s.stage_canonicalize_us = mean_us("cnash_stage_canonicalize_seconds");
  s.stage_cache_lookup_us = mean_us("cnash_stage_cache_lookup_seconds");
  s.stage_render_us = mean_us("cnash_stage_render_seconds");
  s.stage_flush_us = mean_us("cnash_stage_flush_seconds");
  return s;
}

ServiceNumbers service_from_gateway(Gateway& gateway, double wall_s,
                                    std::size_t threads) {
  const Json metrics = gateway.query("metrics").at("metrics");
  const Json& h = metrics.at("histograms");
  const auto mean_ms = [&](const char* name) {
    return 1e3 * hist_number(h, name, "sum") / hist_number(h, name, "count");
  };
  ServiceNumbers n;
  n.queue_wait_ms = mean_ms("cnash_stage_queue_wait_seconds");
  n.prepare_ms = mean_ms("cnash_stage_prepare_seconds");
  n.unit_ms = mean_ms("cnash_stage_unit_seconds");
  n.pool_busy_ratio = (hist_number(h, "cnash_stage_prepare_seconds", "sum") +
                       hist_number(h, "cnash_stage_unit_seconds", "sum")) /
                      (static_cast<double>(threads) * wall_s);
  return n;
}

// ---- serve_warm ------------------------------------------------------------------

WorkloadOutcome run_serve_warm(const RunContext& ctx) {
  WorkloadOutcome out;
  std::mutex problems_mutex;
  out.mix = Json::object();
  out.mix.set("classes", mix_json(kWarmMix));
  out.mix.set("distinct_solves", kWarmKeys);
  out.mix.set("relabeled_share", 0.25);
  out.mix.set("framing", "the client alternates JSON-lines and binary");
  out.mix.set("loop", "closed, 1 client, 1 request outstanding");
  out.client_threads = kWarmClients;
  out.server_threads = 1;

  // Inputs: each distinct solve as sent (variant 2k) plus one row/column
  // relabeling of it (variant 2k+1). The replay order sends every original
  // three times per relabeling, shuffled.
  Rng rng(ctx.seed);
  std::vector<std::string> variants;
  for (std::size_t k = 0; k < kWarmKeys; ++k) {
    const SolveSpec& s = kWarmMix[k % kWarmMix.size()];
    Rng game_rng = rng.split(k);
    const cnash::game::BimatrixGame g =
        make_game(s, game_rng, 0, "warm-" + std::to_string(k));
    const std::uint64_t seed = wire_seed(ctx.seed, k);
    variants.push_back(solve_body(g, s, seed, 2 * k));
    variants.push_back(solve_body(relabel(g, game_rng), s, seed, 2 * k + 1));
  }
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < kWarmKeys; ++k)
    for (std::size_t r = 0; r < 4; ++r) order.push_back(2 * k + (r == 3 ? 1 : 0));
  Rng shuffle = rng.split(~0ULL);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[shuffle.uniform_index(i)]);
  out.corpus = variants;

  // Set-up, untimed: solve every variant once into a fresh tier-2 store.
  out.store_dir = make_dir(ctx, "warm-store");
  {
    GatewayConfig pre;
    pre.store_dir = out.store_dir;
    pre.service_threads = 2;
    Gateway gateway(pre);
    Conn conn;
    if (!conn.open(gateway.port(), false)) fail("warm pre-solve connect failed");
    const Clock::time_point t0 = Clock::now();
    std::string response;
    for (const std::string& v : variants)
      if (!conn.call(v, response, 60.0) || !starts_ok(response))
        fail("warm pre-solve failed: " + response.substr(0, 200));
    out.service = service_from_gateway(gateway, seconds_between(t0, Clock::now()),
                                       pre.service_threads);
    if (!gateway.stop()) fail("warm pre-solve gateway did not drain cleanly");
  }

  // Timed set-ups: boot a gateway over the store (recovery), warm pass that
  // promotes every key into RAM, first timed op answered. The first warm
  // pass's responses are the reference every later response must equal.
  GatewayConfig cfg;
  cfg.store_dir = out.store_dir;
  cfg.serve_threads = 1;
  cfg.service_threads = 1;
  std::vector<std::string> reference(variants.size());
  const auto set_up = [&](bool first) {
    const Clock::time_point t0 = Clock::now();
    auto gateway = std::make_unique<Gateway>(cfg);
    Conn conns[2];
    if (!conns[0].open(gateway->port(), false) ||
        !conns[1].open(gateway->port(), true))
      fail("warm connect failed");
    std::string response;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      if (!conns[v % 2].call(variants[v], response, 30.0))
        fail("warm pass request timed out");
      if (first) {
        reference[v] = response;
        if (!starts_ok(response) ||
            response.find("\"cached\":true") == std::string::npos)
          note(out, problems_mutex,
               "warm pass response is not a cached ok: " + response.substr(0, 120));
      } else if (response != reference[v]) {
        note(out, problems_mutex,
             "warm pass response differs across restarts (variant " +
                 std::to_string(v) + ")");
      }
    }
    if (!conns[0].call(variants[order[0]], response, 30.0) ||
        response != reference[order[0]])
      fail("warm first timed op failed");
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
    return gateway;
  };
  std::unique_ptr<Gateway> gateway;
  for (std::size_t b = 0; b < kSetupsBefore; ++b) {
    if (gateway && !gateway->stop()) fail("warm gateway did not drain cleanly");
    gateway = set_up(b == 0);
  }

  // Timed phase: kWarmClients closed-loop clients replay the shuffled order
  // from staggered offsets, each alternating between a JSON-lines and a
  // binary connection of its own.
  std::vector<ClientTally> tallies(kWarmClients);
  std::atomic<std::size_t> total{0};
  std::atomic<std::size_t> running{kWarmClients};
  out.window_s = window_length(0.5, ctx.seconds);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(ctx.seconds));
  {
    std::vector<std::thread> threads;
    const auto client = [&](std::size_t t) {
      ClientTally& tally = tallies[t];
      Conn own[2];
      if (!own[0].open(gateway->port(), false) ||
          !own[1].open(gateway->port(), true)) {
        note(out, problems_mutex, "warm client connect failed");
        return;
      }
      std::string response;
      const std::size_t offset = t * order.size() / kWarmClients;
      for (std::size_t k = 0; Clock::now() < deadline || total.load() < kMinOps;
           ++k) {
        const std::size_t v = order[(offset + k) % order.size()];
        Conn& conn = own[k % 2];
        tally.attempted++;
        total.fetch_add(1);
        const Clock::time_point sent = Clock::now();
        const bool got = conn.call(variants[v], response, 5.0);
        const Clock::time_point done = Clock::now();
        if (!got) {
          tally.failed++;
          note(out, problems_mutex, "warm request timed out or lost");
          if (!conn.open(gateway->port(), k % 2 == 1)) break;
          continue;
        }
        if (response != reference[v]) {
          tally.failed++;
          note(out, problems_mutex, "warm replay not byte-identical (variant " +
                                        std::to_string(v) + ")");
          continue;
        }
        tally.latencies_ms.push_back(1e3 * seconds_between(sent, done));
        tally.done_s.push_back(seconds_between(start, done));
        tally.op_class.push_back(static_cast<std::uint32_t>((v / 2) % kWarmMix.size()));
      }
    };
    for (std::size_t t = 0; t < kWarmClients; ++t)
      threads.emplace_back([&, t] {
        client(t);
        running.fetch_sub(1);
      });
    sample_windows(out, start, running, [&] { return gateway->usage().cpu_s; });
    for (std::thread& th : threads) th.join();
  }
  out.wall_s = seconds_between(start, Clock::now());
  out.peak_rss_mb = gateway->usage().peak_rss_mb;
  merge(out, tallies);
  out.scrape = scrape_gateway(*gateway);
  if (!gateway->stop()) note(out, problems_mutex, "warm gateway did not drain");
  while (out.setup_s.size() < kSetups)
    if (!set_up(false)->stop()) fail("warm gateway did not drain cleanly");

  out.captured.requests = variants;
  out.captured.responses = reference;
  out.captured.byte_exact = true;
  return out;
}

// ---- serve_cold ------------------------------------------------------------------

WorkloadOutcome run_serve_cold(const RunContext& ctx) {
  constexpr std::size_t kClients = 1;
  // Coprime with the mix length, so the sample covers every class.
  constexpr std::size_t kSampleEvery = 17;
  constexpr std::size_t kSamples = 32;
  WorkloadOutcome out;
  std::mutex mutex;
  out.mix = Json::object();
  out.mix.set("classes", mix_json(kColdMix));
  out.mix.set("order", "op i uses class i mod " + std::to_string(kColdMix.size()) +
                           "; every op a fresh game and seed");
  out.mix.set("ram_cache_mb", std::size_t{1});
  out.mix.set("framing", "even ops JSON-lines, odd ops binary");
  out.mix.set("loop", "closed, 1 client, 1 request outstanding");
  out.client_threads = kClients;
  out.server_threads = 2;
  for (std::uint64_t i = 0; i < kColdMix.size(); ++i)
    out.corpus.push_back(cold_body(ctx.seed, i));

  // One request at a time on one solver worker, so an op's latency is its
  // own solve rather than its wait behind others.
  GatewayConfig cfg;
  cfg.serve_threads = 1;
  cfg.service_threads = 1;
  cfg.cache_mb = 1;  // far below the run's unique reports
  cfg.store_budget_mb = 64;

  // Timed set-ups: boot over an empty store, answer op 0.
  const std::string first = cold_body(ctx.seed, 0);
  const auto set_up = [&] {
    cfg.store_dir =
        make_dir(ctx, "cold-store-" + std::to_string(out.setup_s.size()));
    const Clock::time_point t0 = Clock::now();
    auto gateway = std::make_unique<Gateway>(cfg);
    Conn conn;
    std::string response;
    if (!conn.open(gateway->port(), false) ||
        !conn.call(first, response, 60.0) || !starts_ok(response))
      fail("cold first op failed");
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
    return gateway;
  };
  std::unique_ptr<Gateway> gateway;
  for (std::size_t b = 0; b < kSetupsBefore; ++b) {
    if (gateway && !gateway->stop()) fail("cold gateway did not drain cleanly");
    gateway = set_up();
  }
  out.store_dir = cfg.store_dir;

  std::vector<ClientTally> tallies(kClients);
  std::vector<std::pair<std::uint64_t, std::string>> samples;
  std::atomic<std::uint64_t> next{1};
  std::atomic<std::size_t> running{kClients};
  out.window_s = window_length(1.0, ctx.seconds);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(ctx.seconds));
  {
    std::vector<std::thread> threads;
    const auto client = [&](std::size_t t) {
      ClientTally& tally = tallies[t];
      Conn own[2];
      if (!own[0].open(gateway->port(), false) ||
          !own[1].open(gateway->port(), true)) {
        note(out, mutex, "cold client connect failed");
        return;
      }
      std::string response;
      while (Clock::now() < deadline || next.load() <= kMinOps) {
        const std::uint64_t i = next.fetch_add(1);
        const std::string body = cold_body(ctx.seed, i);
        const bool binary = i % 2 == 1;
        Conn& conn = own[i % 2];
        tally.attempted++;
        const Clock::time_point sent = Clock::now();
        const bool got = conn.call(body, response, 30.0);
        const Clock::time_point done = Clock::now();
        if (!got) {
          tally.failed++;
          note(out, mutex, "cold request " + std::to_string(i) + " timed out");
          if (!conn.open(gateway->port(), binary)) break;
          continue;
        }
        if (!starts_ok(response) ||
            response.find("\"cached\":false") == std::string::npos) {
          tally.failed++;
          note(out, mutex, "cold response not a fresh ok: " +
                               response.substr(0, 160));
          continue;
        }
        tally.latencies_ms.push_back(1e3 * seconds_between(sent, done));
        tally.done_s.push_back(seconds_between(start, done));
        tally.op_class.push_back(static_cast<std::uint32_t>(i % kColdMix.size()));
        if (i % kSampleEvery == 0) {
          std::lock_guard<std::mutex> lock(mutex);
          if (samples.size() < kSamples) samples.push_back({i, response});
        }
      }
    };
    for (std::size_t t = 0; t < kClients; ++t)
      threads.emplace_back([&, t] {
        client(t);
        running.fetch_sub(1);
      });
    sample_windows(out, start, running, [&] { return gateway->usage().cpu_s; });
    for (std::thread& th : threads) th.join();
  }
  out.wall_s = seconds_between(start, Clock::now());
  out.peak_rss_mb = gateway->usage().peak_rss_mb;
  merge(out, tallies);
  out.scrape = scrape_gateway(*gateway);
  out.service = service_from_gateway(*gateway, out.wall_s, cfg.service_threads);
  if (!gateway->stop()) note(out, mutex, "cold gateway did not drain");
  while (out.setup_s.size() < kSetups)
    if (!set_up()->stop()) fail("cold gateway did not drain cleanly");

  std::sort(samples.begin(), samples.end());
  for (auto& [i, response] : samples) {
    out.captured.requests.push_back(cold_body(ctx.seed, i));
    out.captured.responses.push_back(std::move(response));
  }
  return out;
}

// ---- solve_batch -----------------------------------------------------------------

WorkloadOutcome run_solve_batch(const RunContext& ctx) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kWindow = 4;  // closed loop: 4 callers
  // Coprime with the mix length, so the sample covers every class.
  constexpr std::size_t kSampleEvery = 9;
  constexpr std::size_t kSamples = 8;
  constexpr double kJobTimeoutS = 90.0;
  WorkloadOutcome out;
  out.mix = Json::object();
  out.mix.set("classes", mix_json(kBatchMix));
  out.mix.set("order", "job i uses class i mod " +
                           std::to_string(kBatchMix.size()) +
                           "; every job a fresh game and seed");
  out.mix.set("loop", "closed, 4 outstanding jobs on a 4-worker SolverService");
  out.client_threads = 1;
  out.server_threads = kThreads;
  for (std::uint64_t i = 0; i < kBatchMix.size(); ++i)
    out.corpus.push_back(batch_body(ctx.seed, i));

  // Timed set-ups: start the worker pool, complete job 0.
  const cnash::core::SolveRequest first = parse_solve(batch_body(ctx.seed, 0));
  const auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    cnash::core::ServiceOptions so;
    so.threads = kThreads;
    cnash::core::SolverService service(so);
    service.solve(first);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  for (std::size_t b = 0; b < kSetupsBefore; ++b) set_up();

  // Everything the completion callbacks touch is declared before the
  // service, so the service drains before any of it is destroyed.
  struct Done {
    std::uint64_t i;
    Clock::time_point sent, finished;
    cnash::core::SolveReport report;
    std::exception_ptr error;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Done> done;
  cnash::obs::Histogram prepare, unit, queue_wait;
  cnash::core::ServiceOptions so;
  so.threads = kThreads;
  so.telemetry.prepare_seconds = &prepare;
  so.telemetry.unit_seconds = &unit;
  so.telemetry.queue_wait_seconds = &queue_wait;
  auto service = std::make_unique<cnash::core::SolverService>(so);
  std::vector<std::pair<std::uint64_t, Clock::time_point>> outstanding;
  std::uint64_t next = 0;
  const auto submit = [&] {
    const std::uint64_t i = next++;
    cnash::core::SolveRequest request = parse_solve(batch_body(ctx.seed, i));
    const Clock::time_point sent = Clock::now();
    outstanding.push_back({i, sent});
    cnash::core::JobHooks hooks;
    hooks.on_complete = [&, i, sent](cnash::core::SolveReport&& report,
                                     std::exception_ptr error) {
      std::lock_guard<std::mutex> lock(mutex);
      done.push_back({i, sent, Clock::now(), std::move(report), error});
      cv.notify_one();
    };
    service->submit_async(std::move(request), std::move(hooks));
  };

  const ProcUsage usage0 = self_usage();
  out.window_s = window_length(2.0, ctx.seconds);
  const Clock::time_point start = Clock::now();
  out.cpu_samples.push_back({0.0, usage0.cpu_s});
  double next_edge = out.window_s;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(ctx.seconds));
  for (std::size_t w = 0; w < kWindow; ++w) submit();
  std::string body;
  while (!outstanding.empty()) {
    std::vector<Done> batch;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait_for(lock, std::chrono::milliseconds(200),
                  [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (Done& d : batch) {
      outstanding.erase(
          std::find_if(outstanding.begin(), outstanding.end(),
                       [&](const auto& o) { return o.first == d.i; }));
      out.attempted++;
      const cnash::core::SolveReport& r = d.report;
      if (d.error || r.degraded || r.units_completed != r.units_total) {
        out.failed++;
        if (out.problems.size() < 20)
          out.problems.push_back("batch job " + std::to_string(d.i) +
                                 " failed or degraded");
      } else {
        out.latencies_ms.push_back(1e3 * seconds_between(d.sent, d.finished));
        out.done_s.push_back(seconds_between(start, d.finished));
        out.op_class.push_back(static_cast<std::uint32_t>(d.i % kBatchMix.size()));
        if (d.i % kSampleEvery == 0 &&
            out.captured.requests.size() < kSamples) {
          out.captured.requests.push_back(batch_body(ctx.seed, d.i));
          cnash::serve::render_solve_ok_body(body, Json::number(double(d.i)),
                                             false, r);
          out.captured.responses.push_back(body);
        }
      }
      if (Clock::now() < deadline || next < kMinOps) submit();
    }
    const double now_s = seconds_between(start, Clock::now());
    if (now_s >= next_edge && !outstanding.empty()) {
      out.cpu_samples.push_back({now_s, self_usage().cpu_s});
      next_edge += out.window_s;
    }
    for (const auto& [i, sent] : outstanding)
      if (seconds_between(sent, Clock::now()) > kJobTimeoutS) {
        // A hung unit cannot be cancelled: report the failed run and leave
        // without draining the pool.
        std::fprintf(stderr, "perfbench: batch job %llu exceeded %.0f s\n",
                     static_cast<unsigned long long>(i), kJobTimeoutS);
        std::printf("{\"correct\":false,\"attempted\":%zu,\"failed\":%zu,"
                    "\"metrics\":{}}\n",
                    out.attempted + outstanding.size(),
                    out.failed + outstanding.size());
        std::fflush(stdout);
        std::_Exit(3);
      }
  }
  out.wall_s = seconds_between(start, Clock::now());
  out.peak_rss_mb = self_usage().peak_rss_mb;
  service.reset();

  const auto mean_ms = [](const cnash::obs::Histogram& h) {
    return 1e3 * h.sum() / static_cast<double>(h.count());
  };
  out.service.queue_wait_ms = mean_ms(queue_wait);
  out.service.prepare_ms = mean_ms(prepare);
  out.service.unit_ms = mean_ms(unit);
  out.service.pool_busy_ratio =
      (prepare.sum() + unit.sum()) / (static_cast<double>(kThreads) * out.wall_s);
  while (out.setup_s.size() < kSetups) set_up();
  return out;
}

// ---- Reference checks and the gateway cross-check --------------------------------

std::size_t check_batch_reference(const Captured& captured,
                                  std::vector<std::string>& problems) {
  cnash::core::ServiceOptions so;
  so.threads = 4;
  cnash::core::SolverService service(so);
  std::vector<std::future<cnash::core::SolveReport>> futures;
  for (const std::string& request : captured.requests)
    futures.push_back(service.submit(parse_solve(request)));
  std::size_t mismatches = 0;
  std::string body;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const cnash::serve::WireRequest w =
        cnash::serve::parse_request(captured.requests[k]);
    cnash::serve::render_solve_ok_body(body, w.id, false, futures[k].get());
    if (strip_wall_clock(body) != strip_wall_clock(captured.responses[k])) {
      mismatches++;
      problems.push_back("batch report differs from its reference solve (job " +
                         w.id.dump() + ")");
    }
  }
  return mismatches;
}

Captured gateway_cross_check(const Captured& batch, GatewayScrape& scrape) {
  GatewayConfig cfg;
  cfg.serve_threads = 1;
  cfg.service_threads = 4;
  Gateway gateway(cfg);
  Conn conn;
  if (!conn.open(gateway.port(), false)) fail("cross-check connect failed");
  Captured out;
  std::string response;
  for (const std::string& request : batch.requests) {
    if (!conn.call(request, response, 120.0)) fail("cross-check request failed");
    out.requests.push_back(request);
    out.responses.push_back(response);
  }
  scrape = scrape_gateway(gateway);
  conn.close();
  gateway.stop();
  return out;
}

}  // namespace perfbench

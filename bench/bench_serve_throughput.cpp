// Serving-gateway warm-path load generator: boots in-process NashServers on
// ephemeral loopback ports, fills each one's cache with one pass of unique
// solves, then sweeps a client-concurrency grid over the cached batch —
// serve_threads {1, 4} × connections {1, 8, 64} — with a closed-loop driver
// (one request outstanding per connection, one client thread per connection)
// so latency percentiles are true per-request round trips under concurrency.
// Every warm request must be a cache hit. One binary-framing cell compares
// framings on the same cache, and the server's own per-stage histograms ride
// along as `server_stages`. The cold (solve) path is perfbench's serve_cold
// workload; the fill pass here is not reported.
//
// The headline `warm_speedup` is warm req/s at (serve_threads 4, 64
// connections) over the single-threaded baseline (serve_threads 1, one
// synchronous connection). `hardware_threads` rides along in the JSON: on a
// single-core host the sweep degenerates to syscall-batching gains only.
//
// Exits non-zero on any error response or warm cache miss.
//
// Usage: bench_serve_throughput [requests-per-class] [--threads N]
//                               [--json <path>]   (BENCH_serve_throughput.json)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "game/parse.hpp"
#include "game/random_games.hpp"
#include "serve/line_client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

using cnash::serve::LineClient;
using cnash::util::Json;

struct RequestClass {
  std::string label;
  std::string backend;
  std::size_t actions;
  std::size_t runs;
  std::size_t iterations;
};

/// Request body without the trailing "}" — the driver appends its own id.
std::string solve_body(const RequestClass& cls,
                       const cnash::game::BimatrixGame& g, std::uint64_t seed) {
  std::string body = "{\"method\":\"solve\"";
  body +=
      ",\"game_text\":" + Json::string(cnash::game::serialize_game(g)).dump();
  body += ",\"backend\":\"" + cls.backend + "\"";
  body += ",\"runs\":" + std::to_string(cls.runs);
  body += ",\"iterations\":" + std::to_string(cls.iterations);
  body += ",\"seed\":" + std::to_string(seed);
  return body;
}

struct PhaseResult {
  double wall_s = 0.0;
  std::size_t responses = 0;
  std::size_t errors = 0;
  std::size_t cached = 0;
  std::vector<double> latencies;       // successful responses, seconds
  cnash::util::RunningStats latency;   // the same samples, streamed

  double rps() const {
    return wall_s > 0.0 ? static_cast<double>(responses) / wall_s : 0.0;
  }
};

/// Closed-loop drive: `connections` client threads, each with its own
/// connection and one request outstanding, splitting `bodies` round-robin.
/// Latency is the synchronous submit→response round trip.
PhaseResult drive(std::uint16_t port, std::size_t connections,
                  const std::vector<std::string>& bodies, bool binary) {
  using clock = std::chrono::steady_clock;
  const std::size_t conns = std::min(std::max<std::size_t>(1, connections),
                                     bodies.size());
  std::vector<PhaseResult> shards(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  const auto start = clock::now();
  for (std::size_t t = 0; t < conns; ++t)
    threads.emplace_back([&, t] {
      PhaseResult& shard = shards[t];
      LineClient client;
      if (!client.connect_to(port)) {
        std::fprintf(stderr, "bench_serve_throughput: connect failed\n");
        std::exit(1);
      }
      std::string line, response;
      for (std::size_t i = t; i < bodies.size(); i += conns) {
        line = bodies[i];
        line += ",\"id\":0}";
        const auto sent = clock::now();
        bool got;
        if (binary) {
          unsigned char type = 0;
          got = client.send_frame(cnash::serve::kFrameSolve, line) &&
                client.recv_frame(type, response);
        } else {
          got = client.send_line(line) && client.recv_line(response);
        }
        if (!got) {
          std::fprintf(stderr, "bench_serve_throughput: connection lost\n");
          std::exit(1);
        }
        const double latency =
            std::chrono::duration<double>(clock::now() - sent).count();
        const Json parsed = Json::parse(response);
        shard.responses++;
        if (!parsed.at("ok").as_bool()) {
          shard.errors++;
          continue;
        }
        if (parsed.at("cached").as_bool()) shard.cached++;
        shard.latencies.push_back(latency);
        shard.latency.add(latency);
      }
    });
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.wall_s = std::chrono::duration<double>(clock::now() - start).count();
  for (PhaseResult& shard : shards) {
    result.responses += shard.responses;
    result.errors += shard.errors;
    result.cached += shard.cached;
    result.latencies.insert(result.latencies.end(), shard.latencies.begin(),
                            shard.latencies.end());
    result.latency.merge(shard.latency);
  }
  return result;
}

/// One warm cell of the sweep.
Json report_cell(std::size_t connections, const char* framing,
                 const PhaseResult& r) {
  Json lat = Json::object();
  lat.set("mean", r.latency.mean());
  lat.set("p50", cnash::util::percentile(r.latencies, 50));
  lat.set("p95", cnash::util::percentile(r.latencies, 95));
  lat.set("p99", cnash::util::percentile(r.latencies, 99));
  lat.set("max", r.latency.max());
  Json cell = Json::object();
  cell.set("connections", connections);
  cell.set("framing", framing);
  cell.set("responses", r.responses);
  cell.set("errors", r.errors);
  cell.set("cached", r.cached);
  cell.set("wall_s", r.wall_s);
  cell.set("requests_per_sec", r.rps());
  cell.set("latency_s", std::move(lat));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cnash;
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  const std::size_t per_class = cli.runs > 0 ? cli.runs : 8;
  constexpr std::size_t kWarmTarget = 256;  // minimum warm requests per cell
  bench::JsonReport report("serve_throughput", cli);

  // Mixed game-size / backend classes: the small-and-exact end answers in
  // microseconds, the hardware end exercises crossbar programming — together
  // they approximate a production mix where cheap and expensive solves share
  // the cache.
  const std::vector<RequestClass> classes = {
      {"exact_sa_2", "exact-sa", 2, 8, 400},
      {"exact_sa_16", "exact-sa", 16, 4, 400},
      {"lemke_howson_12", "lemke-howson", 12, 1, 0},
      {"hardware_sa_4", "hardware-sa", 4, 4, 300},
      {"hardware_sa_tiled_8", "hardware-sa-tiled", 8, 2, 300},
  };

  util::Rng rng(0x5EEDBEEF);
  std::vector<std::string> bodies;
  for (const RequestClass& cls : classes)
    for (std::size_t i = 0; i < per_class; ++i) {
      // Hardware backends want integer-codeable payoffs; the software
      // backends get covariant games (the harder, generic mix).
      game::BimatrixGame g =
          cls.backend.rfind("hardware", 0) == 0
              ? game::random_integer_game(cls.actions, cls.actions, rng)
              : game::random_covariant_game(cls.actions, cls.actions, 0.0, rng);
      bodies.push_back(solve_body(cls, g, /*seed=*/1000 + i));
    }
  // Warm cells replay the cached batch enough times to be statistically
  // meaningful (>= kWarmTarget requests per cell).
  std::vector<std::string> warm_bodies;
  const std::size_t reps = (kWarmTarget + bodies.size() - 1) / bodies.size();
  warm_bodies.reserve(reps * bodies.size());
  for (std::size_t r = 0; r < reps; ++r)
    warm_bodies.insert(warm_bodies.end(), bodies.begin(), bodies.end());

  const std::vector<std::size_t> serve_thread_grid = {1, 4};
  const std::vector<std::size_t> connection_grid = {1, 8, 64};

  Json& root = report.root();
  root.set("requests_per_class", per_class);
  root.set("warm_requests", warm_bodies.size());
  root.set("hardware_threads",
           static_cast<std::size_t>(std::thread::hardware_concurrency()));
  Json classes_json = Json::array();
  for (const RequestClass& cls : classes) {
    Json& c = classes_json.push(Json::object());
    c.set("label", cls.label);
    c.set("backend", cls.backend);
    c.set("actions", cls.actions);
    c.set("runs", cls.runs);
  }
  root.set("classes", std::move(classes_json));
  Json sweep = Json::array();

  double baseline_rps = 0.0;  // serve_threads 1, one connection
  double headline_rps = 0.0;  // serve_threads 4, 64 connections
  bool ok = true;
  for (const std::size_t serve_threads : serve_thread_grid) {
    serve::ServeOptions options;
    options.serve_threads = serve_threads;
    options.service_threads = cli.threads;
    // This bench measures throughput and cache behavior, not shedding:
    // admission is sized to the offered load (every request must be
    // admitted).
    options.admission.max_queue_depth = warm_bodies.size() + 16;
    options.admission.per_connection_inflight = warm_bodies.size() + 16;
    serve::NashServer server(options);
    server.start();
    std::thread server_thread([&] { server.run(); });

    // Fill the cache: every request unique, so each one is solved.
    const PhaseResult fill = drive(server.port(), 4, bodies, /*binary=*/false);
    if (fill.errors > 0)
      std::fprintf(stderr, "serve_threads %zu  cache fill: %zu errors\n",
                   serve_threads, fill.errors);
    ok = ok && fill.errors == 0;

    Json warm_json = Json::array();
    for (const std::size_t connections : connection_grid) {
      const PhaseResult warm =
          drive(server.port(), connections, warm_bodies, /*binary=*/false);
      warm_json.push(report_cell(connections, "json-lines", warm));
      std::printf("serve_threads %zu  warm x%-2zu conns: %8.1f req/s, "
                  "p50 %.6f s, p95 %.6f s, p99 %.6f s, %zu/%zu cached\n",
                  serve_threads, connections, warm.rps(),
                  util::percentile(warm.latencies, 50),
                  util::percentile(warm.latencies, 95),
                  util::percentile(warm.latencies, 99), warm.cached,
                  warm.responses);
      ok = ok && warm.errors == 0 && warm.cached == warm.responses;
      if (serve_threads == 1 && connections == 1) baseline_rps = warm.rps();
      if (serve_threads == 4 && connections == 64) headline_rps = warm.rps();
    }

    // One binary-framing cell against the same warm cache: same bodies, the
    // length-prefixed framing instead of JSON lines.
    if (serve_threads == serve_thread_grid.back()) {
      const PhaseResult warm_bin =
          drive(server.port(), 8, warm_bodies, /*binary=*/true);
      warm_json.push(report_cell(8, "binary", warm_bin));
      std::printf("serve_threads %zu  warm x8  conns: %8.1f req/s "
                  "(binary framing), %zu/%zu cached\n",
                  serve_threads, warm_bin.rps(), warm_bin.cached,
                  warm_bin.responses);
      ok = ok && warm_bin.errors == 0 && warm_bin.cached == warm_bin.responses;
    }

    Json group = Json::object();
    group.set("serve_threads", serve_threads);
    group.set("warm", std::move(warm_json));
    {
      LineClient probe;
      std::string stats_line;
      if (probe.connect_to(server.port()) &&
          probe.send_line("{\"method\":\"stats\"}") &&
          probe.recv_line(stats_line)) {
        const Json stats = Json::parse(stats_line);
        group.set("fair_deferrals", stats.at("stats")
                                        .at("served")
                                        .at("fair_deferrals")
                                        .as_number());
      }

      // Server-side per-stage latency quantiles (the metrics registry's
      // always-on histograms), recorded beside the client-side latencies:
      // parse vs cache-lookup cost straight from the server's own clocks.
      std::string metrics_line;
      if (probe.send_line("{\"method\":\"metrics\"}") &&
          probe.recv_line(metrics_line)) {
        const Json metrics = Json::parse(metrics_line);
        const Json& histograms = metrics.at("metrics").at("histograms");
        Json stages = Json::object();
        for (const char* name :
             {"cnash_stage_parse_seconds", "cnash_stage_canonicalize_seconds",
              "cnash_stage_cache_lookup_seconds", "cnash_stage_admit_seconds",
              "cnash_stage_render_seconds", "cnash_stage_flush_seconds",
              "cnash_request_handle_seconds", "cnash_stage_prepare_seconds",
              "cnash_stage_unit_seconds", "cnash_stage_queue_wait_seconds",
              "cnash_solve_wall_seconds"}) {
          const Json* h = histograms.find(name);
          if (!h) continue;
          Json stage = Json::object();
          for (const char* field : {"count", "sum", "p50", "p95", "p99"})
            stage.set(field, h->at(field).as_number());
          stages.set(name, std::move(stage));
        }
        group.set("server_stages", std::move(stages));
      }
    }
    sweep.push(std::move(group));

    server.request_stop();
    server_thread.join();
  }
  root.set("sweep", std::move(sweep));

  if (baseline_rps > 0.0 && headline_rps > 0.0)
    root.set("warm_speedup", headline_rps / baseline_rps);
  std::printf("warm_speedup (serve_threads 4 x 64 conns over single-threaded "
              "1-conn baseline): %.2fx\n",
              baseline_rps > 0.0 ? headline_rps / baseline_rps : 0.0);
  report.finish(
      static_cast<double>(2 * (bodies.size() + 3 * warm_bodies.size()) +
                          warm_bodies.size()));

  if (!ok) {
    std::fprintf(stderr, "bench_serve_throughput: FAILED (errors or warm "
                 "misses — see the counters above)\n");
    return 1;
  }
  return 0;
}

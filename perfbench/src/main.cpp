// perfbench — the repository benchmark runner.
//
//   perfbench run --workload serve_warm|serve_cold|solve_batch --seed N
//                 --seconds S --trace 0|1 [--out DIR] [--git-sha SHA]
//
// A run sets up the system under test (timing each set-up), drives the
// workload closed-loop for S seconds while checking every response, replays
// a captured sample through the in-process pipeline as the output check, and
// prints one JSON result line last on stdout: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (which also writes a
// Perfetto-loadable trace and prints the per-layer self-time table).
// Everything else goes to stderr and to DIR/result-*.json.

#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "bench.hpp"
#include "simd/simd.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cnash::util::Json;

/// Whole-run guard: a run that overstays is killed with its children.
constexpr int kWatchdogSeconds = 170;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload serve_warm|serve_cold|"
               "solve_batch --seed N --seconds S --trace 0|1 [--out DIR]\n"
               "              [--git-sha SHA]\n");
  return 2;
}

Json environment(const RunContext& ctx, const WorkloadOutcome& o) {
  Json env = Json::object();
  env.set("git_sha", ctx.git_sha);
  env.set("simd_level", cnash::simd::level_name(cnash::simd::active_level()));
  env.set("nproc", static_cast<std::size_t>(std::thread::hardware_concurrency()));
  env.set("build_type", PERFBENCH_BUILD_TYPE);
  env.set("workload", ctx.workload);
  env.set("seed", static_cast<double>(ctx.seed));
  env.set("seconds", ctx.seconds);
  env.set("trace", ctx.trace);
  env.set("client_threads", o.client_threads);
  env.set("server_threads", o.server_threads);
  env.set("mix", o.mix);
  return env;
}

/// The timed phase is cut into windows at the CPU samples. Every metric is
/// computed per window, and every window counts: throughput reports the
/// windows' first decile, latency and CPU per op their ninth decile, i.e. the
/// level nine windows in ten reach. The shared host runs in two speed modes,
/// bursts of windows up to 1.5x faster over a slower floor, and the share of
/// fast windows differs from run to run. A decile follows the floor; a median
/// over windows or a percentile pooled over the run moves with that share.
struct Window {
  double ops_per_s = 0.0;
  double cpu_ms_per_op = 0.0;
  std::vector<double> latencies_ms;
};

void end_to_end(const WorkloadOutcome& o, Metrics& m) {
  std::vector<Window> windows;
  for (std::size_t k = 0; k + 1 < o.cpu_samples.size(); ++k) {
    const auto [t0, cpu0] = o.cpu_samples[k];
    const auto [t1, cpu1] = o.cpu_samples[k + 1];
    Window w;
    for (std::size_t i = 0; i < o.done_s.size(); ++i)
      if (o.done_s[i] >= t0 && o.done_s[i] < t1)
        w.latencies_ms.push_back(o.latencies_ms[i]);
    w.ops_per_s = static_cast<double>(w.latencies_ms.size()) / (t1 - t0);
    w.cpu_ms_per_op =
        1e3 * (cpu1 - cpu0) / static_cast<double>(w.latencies_ms.size());
    windows.push_back(std::move(w));
  }
  if (windows.empty()) fail("the timed phase produced no measurement window");
  std::vector<double> window_rates, p50, p90, cpu;
  for (const Window& w : windows) {
    window_rates.push_back(w.ops_per_s);
    if (w.latencies_ms.empty()) continue;
    p50.push_back(percentile(w.latencies_ms, 0.50));
    p90.push_back(percentile(w.latencies_ms, 0.90));
    cpu.push_back(w.cpu_ms_per_op);
  }
  if (p50.empty()) fail("no measurement window completed an op");
  m.add("ops_per_s", percentile(window_rates, 0.1), "1/s");
  m.add("latency_p50_ms", percentile(p50, 0.9), "ms");
  m.add("latency_p90_ms", percentile(p90, 0.9), "ms");
  m.add("success_rate",
        1.0 - static_cast<double>(o.failed) / static_cast<double>(o.attempted),
        "ratio");
  m.add("cpu_ms_per_op", percentile(cpu, 0.9), "ms");
  m.add("peak_rss_mb", o.peak_rss_mb, "MB");
  m.add("setup_s", median(o.setup_s), "s");
}

double span_median(const std::vector<TraceEvent>& spans, const char* name) {
  return median(durations(spans, name));
}

void per_layer(const WorkloadOutcome& o, const std::vector<TraceEvent>& spans,
               const ReplayResult& traced, double overhead, Metrics& probes,
               Metrics& m) {
  m.add("client.round_trip_p50_us", 1e3 * median(o.latencies_ms), "us");
  m.add("serve.parse_request_us", span_median(spans, "serve.parse_request"), "us");
  m.add("serve.canonicalize_us", span_median(spans, "serve.canonicalize"), "us");
  m.add("serve.cache_lookup_us", span_median(spans, "serve.cache_lookup"), "us");
  m.add("serve.map_to_original_us", span_median(spans, "serve.map_to_original"),
        "us");
  m.add("serve.render_body_us", span_median(spans, "serve.render_body"), "us");
  m.add("serve.response_bytes", mean(traced.response_bytes), "bytes");
  const GatewayScrape& s = o.scrape;
  m.add("serve.stage_parse_mean_us", s.stage_parse_us, "us");
  m.add("serve.stage_canonicalize_mean_us", s.stage_canonicalize_us, "us");
  m.add("serve.stage_cache_lookup_mean_us", s.stage_cache_lookup_us, "us");
  m.add("serve.stage_render_mean_us", s.stage_render_us, "us");
  m.add("serve.stage_flush_mean_us", s.stage_flush_us, "us");
  m.add("serve.cache_hit_ratio",
        s.cache_lookups > 0 ? s.cache_hits / s.cache_lookups : 0.0, "ratio");
  m.add("serve.cache_lookups", s.cache_lookups, "count");
  m.add("serve.admission_shed_ratio",
        s.admission_decisions > 0 ? s.admission_shed / s.admission_decisions
                                  : 0.0,
        "ratio");
  m.add("serve.admission_decisions", s.admission_decisions, "count");
  m.add("core.queue_wait_ms", o.service.queue_wait_ms, "ms");
  m.add("core.prepare_ms", o.service.prepare_ms, "ms");
  m.add("core.unit_ms", o.service.unit_ms, "ms");
  m.add("core.pool_busy_ratio", o.service.pool_busy_ratio, "ratio");
  for (const auto& [name, vu] : probes.items()) m.add(name, vu.first, vu.second);
  m.add("trace.overhead_ratio", overhead, "ratio");
}

/// Completed ops and p10 / p50 / p90 latency per request class of the mix.
void print_classes(const WorkloadOutcome& o) {
  const Json& classes = o.mix.at("classes");
  std::fprintf(stderr, "\nper class (completed ops, p10 / p50 / p90 latency ms)\n");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < o.op_class.size(); ++i)
      if (o.op_class[i] == c) lat.push_back(o.latencies_ms[i]);
    std::fprintf(stderr, "  %-60s %7zu %9.3f %9.3f %9.3f\n",
                 classes.at(c).dump().substr(0, 60).c_str(), lat.size(),
                 percentile(lat, 0.1), percentile(lat, 0.5),
                 percentile(lat, 0.9));
  }
}

void print_table(const char* title, const Metrics& m) {
  std::fprintf(stderr, "\n%s\n", title);
  for (const auto& [name, vu] : m.items())
    std::fprintf(stderr, "  %-34s %14.4f %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
}

Json layer_table_json(const std::vector<TraceEvent>& spans) {
  Json rows = Json::array();
  std::fprintf(stderr, "\nper-layer self time (traced replay + probes)\n");
  std::fprintf(stderr, "  %-28s %8s %14s %14s %12s\n", "span", "count",
               "total_ms", "self_ms", "self_us/call");
  for (const LayerRow& r : layer_table(spans)) {
    std::fprintf(stderr, "  %-28s %8zu %14.3f %14.3f %12.2f\n", r.name.c_str(),
                 r.count, r.total_us / 1e3, r.self_us / 1e3,
                 r.self_us / static_cast<double>(r.count));
    Json& row = rows.push(Json::object());
    row.set("span", r.name);
    row.set("count", r.count);
    row.set("total_us", r.total_us);
    row.set("self_us", r.self_us);
  }
  return rows;
}

int run_workload(const RunContext& ctx);

int run(int argc, char** argv) {
  RunContext ctx;
  ctx.out_dir = ".bench_build/perfbench-out";
  bool have_workload = false;
  for (int a = 0; a + 1 < argc; a += 2) {
    const std::string flag = argv[a], value = argv[a + 1];
    if (flag == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ctx.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      ctx.seconds = std::stod(value);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--out") {
      ctx.out_dir = value;
    } else if (flag == "--git-sha") {
      ctx.git_sha = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(ctx.seconds > 0.0) ||
      (ctx.workload != "serve_warm" && ctx.workload != "serve_cold" &&
       ctx.workload != "solve_batch"))
    return usage();
  ctx.work_dir = ctx.out_dir + "/work-" + std::to_string(::getpid());
  fs::create_directories(ctx.work_dir);

  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(watchdog_mutex);
    if (!watchdog_cv.wait_for(lock, std::chrono::seconds(kWatchdogSeconds),
                              [&] { return finished; }))
      fail("run exceeded " + std::to_string(kWatchdogSeconds) + " s");
  });
  const auto stop_watchdog = [&] {
    {
      std::lock_guard<std::mutex> lock(watchdog_mutex);
      finished = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  };

  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    std::fprintf(stderr,
                 "\n!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
                 "!! perfbench: build type is '%s', not Release — these\n"
                 "!! numbers are not comparable with any baseline.\n"
                 "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n\n",
                 PERFBENCH_BUILD_TYPE);

  try {
    const int rc = run_workload(ctx);
    stop_watchdog();
    return rc;
  } catch (const std::exception& e) {
    fail(std::string("run failed: ") + e.what());
  }
}

/// One run after argument parsing: workload, checks, traced replay and
/// probes, result. Prints the result line last on stdout.
int run_workload(const RunContext& ctx) {
  WorkloadOutcome o = ctx.workload == "serve_warm"   ? run_serve_warm(ctx)
                      : ctx.workload == "serve_cold" ? run_serve_cold(ctx)
                                                     : run_solve_batch(ctx);
  const Json env = environment(ctx, o);
  std::fprintf(stderr, "perfbench environment: %s\n", env.dump().c_str());

  // Output checks: replay the captured sample in-process (warm, cold) or
  // re-solve it (batch).
  std::size_t mismatches = 0;
  ReplayOptions replay_options;
  if (ctx.workload == "serve_warm") {
    replay_options.attach_store_dir = o.store_dir;
    replay_options.passes = 4;
  }
  Captured replayed = o.captured;
  if (ctx.workload == "solve_batch") {
    mismatches += check_batch_reference(o.captured, o.problems);
    if (ctx.trace) {
      // The traced replay runs the gateway path, so its bodies are checked
      // against a gateway's responses to the same requests.
      replayed = gateway_cross_check(o.captured, o.scrape);
      replay_options.put_store_dir = ctx.work_dir + "/batch-put-store";
    }
  }
  cnash::obs::TraceRecorder untraced, tracer;
  if (ctx.trace) tracer.enable();
  ReplayResult plain;
  if (ctx.workload != "solve_batch" || ctx.trace) {
    plain = replay(replayed, replay_options, untraced);
    mismatches += plain.mismatches;
    o.problems.insert(o.problems.end(), plain.problems.begin(),
                      plain.problems.end());
  }

  Metrics metrics;
  Json record = Json::object();
  if (ctx.trace) {
    // Tracing overhead: untraced and traced replays alternate (the replay
    // above warmed the page cache and the allocator); the ratio of their
    // median wall times. A single pair is too short to rise above the
    // host's noise.
    constexpr int kOverheadRounds = 3;
    const bool puts = !replay_options.put_store_dir.empty();
    std::vector<double> untraced_s, traced_s;
    ReplayResult traced;
    for (int k = 0; k < kOverheadRounds; ++k)
      for (const bool on : {false, true}) {
        if (puts)
          replay_options.put_store_dir = ctx.work_dir + "/put-store-" +
                                         std::to_string(k) +
                                         (on ? "-traced" : "-untraced");
        ReplayResult r = replay(replayed, replay_options, on ? tracer : untraced);
        mismatches += r.mismatches;
        o.problems.insert(o.problems.end(), r.problems.begin(), r.problems.end());
        (on ? traced_s : untraced_s).push_back(r.wall_s);
        if (on) traced = std::move(r);
      }
    if (puts) o.store_dir = replay_options.put_store_dir;
    Metrics probes;
    Json probe_record = Json::object();
    probe_layers(ctx, o, tracer, probes, probe_record);
    record.set("probe_inputs", probe_record);
    const double overhead = median(traced_s) / median(untraced_s);
    const std::vector<TraceEvent> spans = trace_events(tracer);
    per_layer(o, spans, traced, overhead, probes, metrics);
    record.set("layer_table", layer_table_json(spans));
    const std::string trace_path = ctx.out_dir + "/trace-" + ctx.workload +
                                   "-seed" + std::to_string(ctx.seed) + ".json";
    if (!tracer.write_chrome_trace(trace_path)) fail("cannot write " + trace_path);
    std::fprintf(stderr, "trace written to %s (%zu spans)\n", trace_path.c_str(),
                 spans.size());
  } else {
    end_to_end(o, metrics);
  }

  Metrics e2e;
  if (ctx.trace) end_to_end(o, e2e);
  print_table("end-to-end", ctx.trace ? e2e : metrics);
  if (ctx.workload != "solve_batch")
    std::fprintf(stderr, "  %-34s %14.4f ms (%zu samples)\n", "latency_p99_ms",
                 percentile(o.latencies_ms, 0.99), o.latencies_ms.size());
  if (ctx.trace) print_table("per-layer", metrics);

  print_classes(o);
  const std::size_t failed = o.failed + mismatches;
  const bool correct = failed == 0 && o.problems.empty();
  for (const std::string& p : o.problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", o.attempted);
  result.set("failed", failed);
  result.set("metrics", metrics.to_json());

  record.set("environment", env);
  record.set("result", result);
  Json setups = Json::array();
  for (double s : o.setup_s) setups.push(Json::number(s));
  record.set("setup_samples_s", setups);
  record.set("completed_ops", o.latencies_ms.size());
  Json problems = Json::array();
  for (const std::string& p : o.problems) problems.push(Json::string(p));
  record.set("problems", problems);
  const std::string record_path = ctx.out_dir + "/result-" + ctx.workload +
                                  "-seed" + std::to_string(ctx.seed) +
                                  "-trace" + (ctx.trace ? "1" : "0") + ".json";
  std::ofstream(record_path) << record.pretty() << '\n';

  fs::remove_all(ctx.work_dir);
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "run") == 0)
    return perfbench::run(argc - 2, argv + 2);
  return perfbench::usage();
}

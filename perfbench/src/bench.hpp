#pragma once
// perfbench — workload and layer interfaces shared by main.cpp,
// workloads.cpp (the three timed workloads) and layers.cpp (the in-process
// pipeline replay and the per-layer probes of a traced run).

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/json.hpp"

namespace perfbench {

struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;      // results + traces (kept)
  std::string work_dir;  // store directories of this run (deleted)
  std::string git_sha = "unknown";  // of the checkout, passed in by run.py
};

/// Request/response pairs the timed phase captured, replayed in-process
/// afterwards. `byte_exact` pairs must match byte for byte; the others
/// match once the measured wall clock (the one non-deterministic report
/// field) is blanked out.
struct Captured {
  std::vector<std::string> requests;
  std::vector<std::string> responses;
  bool byte_exact = false;
};

/// Mean service-step times and pool occupancy of one phase.
struct ServiceNumbers {
  double queue_wait_ms = 0.0;
  double prepare_ms = 0.0;
  double unit_ms = 0.0;
  double pool_busy_ratio = 0.0;
};

/// Numbers read back from a gateway's `stats` and `metrics` methods.
struct GatewayScrape {
  /// Mean stage times (sum / count of the gateway's stage histograms).
  double stage_parse_us = 0.0;
  double stage_canonicalize_us = 0.0;
  double stage_cache_lookup_us = 0.0;
  double stage_render_us = 0.0;
  double stage_flush_us = 0.0;
  double cache_lookups = 0.0;
  double cache_hits = 0.0;
  double admission_decisions = 0.0;
  double admission_shed = 0.0;
};
GatewayScrape scrape_gateway(Gateway& gateway);
/// core.* service numbers from a gateway's histograms over `wall_s` of work
/// on `threads` workers.
ServiceNumbers service_from_gateway(Gateway& gateway, double wall_s,
                                    std::size_t threads);

/// Everything a workload hands back to main.
struct WorkloadOutcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  // failed output checks, one line each
  double wall_s = 0.0;                // timed phase
  std::vector<double> latencies_ms;   // completed ops
  std::vector<double> done_s;         // their completion times since start
  std::vector<std::uint32_t> op_class;  // their index in the mix
  /// (seconds since start, CPU seconds of the serving/solving process) at
  /// each window edge; the end-to-end metrics are taken over these windows.
  std::vector<std::pair<double, double>> cpu_samples;
  double window_s = 1.0;
  double peak_rss_mb = 0.0;
  std::vector<double> setup_s;        // one per set-up
  Captured captured;
  ServiceNumbers service;
  GatewayScrape scrape;
  /// Every distinct request body of the workload (probe inputs come from it).
  std::vector<std::string> corpus;
  /// Store directory the workload's gateway wrote (empty for solve_batch).
  std::string store_dir;
  cnash::util::Json mix;  // exact request-mix parameters (environment record)
  std::size_t client_threads = 0;
  std::size_t server_threads = 0;
};

WorkloadOutcome run_serve_warm(const RunContext& ctx);
WorkloadOutcome run_serve_cold(const RunContext& ctx);
WorkloadOutcome run_solve_batch(const RunContext& ctx);

/// solve_batch output check: solves the captured requests again, untimed,
/// and compares the rendered reports (wall clock blanked). Returns the
/// number of mismatches and appends one problem line per mismatch.
std::size_t check_batch_reference(const Captured& captured,
                                  std::vector<std::string>& problems);

/// Gateway cross-check for a traced solve_batch run: boots a gateway, sends
/// the captured requests through it and returns its responses + scrape.
Captured gateway_cross_check(const Captured& batch, GatewayScrape& scrape);

// ---- layers.cpp ----------------------------------------------------------------

struct ReplayOptions {
  /// Open this store directory and attach it under the replay cache (the
  /// warm path: disk hit → promote → RAM hits).
  std::string attach_store_dir;
  /// Fresh store directory that every solved report is put() into (the
  /// cold path's write-through, timed on its own).
  std::string put_store_dir;
  /// Replay the captured list this many times (later passes hit RAM).
  std::size_t passes = 1;
};

struct ReplayResult {
  double wall_s = 0.0;
  std::size_t mismatches = 0;
  std::vector<std::string> problems;
  std::vector<double> response_bytes;
};

/// Replays the captured requests through parse_request → canonicalize →
/// SolutionCache lookup/insert → SolverService → map_to_original →
/// render_solve_ok_body, comparing every rendered body with the captured
/// response. With an enabled recorder every call is a span, and the op's
/// index is the trace id of its spans and of its service jobs' queue-wait,
/// prepare and unit spans.
ReplayResult replay(const Captured& captured, const ReplayOptions& options,
                    cnash::obs::TraceRecorder& tracer);

/// `body` with the report's measured "wall_clock_s" value blanked.
std::string strip_wall_clock(const std::string& body);

/// Per-layer probes (traced runs): crossbar/chip programming, evaluator
/// propose/commit, full reads, SA iterations, SIMD kernels, verification,
/// D-Wave proxy reads and store open/get/put — on games taken from the
/// workload's own corpus. Adds its metrics to `layer`.
void probe_layers(const RunContext& ctx, const WorkloadOutcome& outcome,
                  cnash::obs::TraceRecorder& tracer, Metrics& layer,
                  cnash::util::Json& probe_record);

}  // namespace perfbench

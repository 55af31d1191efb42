#pragma once
// perfbench harness — the pieces every workload shares:
//
//   * statistics over latency samples (nearest-rank percentiles, medians);
//   * the result line (metric name → value + unit);
//   * the per-layer self-time table of a traced run, folded from the spans
//     an obs::TraceRecorder exported (span time minus the time its children
//     cover);
//   * Conn: a closed-loop gateway client (JSON-lines or binary framing) with
//     a per-op timeout, so a hung request fails the run instead of hanging it;
//   * Gateway: the shipped `nash_serve` binary as a child process, with its
//     CPU time and peak RSS read from /proc.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; NaN if empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

[[noreturn]] void fail(const std::string& message);


/// Ordered metric list for the result line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  cnash::util::Json to_json() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// ---- Traced-run spans -------------------------------------------------------

/// The category of every span the benchmark itself records; the library's
/// own spans (service queue-wait / prepare / unit) carry theirs.
inline constexpr const char* kBenchCategory = "perfbench";

/// One closed span read back from an obs::TraceRecorder's Chrome trace.
struct TraceEvent {
  std::string name;
  bool bench = false;   // recorded by the benchmark (kBenchCategory)
  std::uint64_t op = 0;  // the trace id; spans of one op share it
  double t0_us = 0.0;
  double t1_us = 0.0;
};
std::vector<TraceEvent> trace_events(const cnash::obs::TraceRecorder& recorder);

/// Durations (µs) of every span called `name`.
std::vector<double> durations(const std::vector<TraceEvent>& events,
                              const std::string& name);

/// Per-layer table: for each span name, count, inclusive and self time. A
/// span's parent is the innermost benchmark span of the same op that
/// contains it in time, so service worker spans nest under the op's solve
/// span; self time is the span minus the union of its children.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::vector<LayerRow> layer_table(const std::vector<TraceEvent>& events);

// ---- Gateway client ----------------------------------------------------------

class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connect to the loopback gateway; `binary` selects the framing.
  bool open(std::uint16_t port, bool binary);
  void close();

  /// Send one request body (compact JSON, id included; a solve frame on a
  /// binary connection) and wait for its final response body. False on
  /// timeout, EOF or a broken frame; the connection is then closed (a late
  /// reply would desynchronise it).
  bool call(const std::string& body, std::string& response, double timeout_s);

 private:
  bool next_message(std::string& out, unsigned char& type);

  int fd_ = -1;
  bool binary_ = false;
  std::string buf_;
};

// ---- Gateway child process -----------------------------------------------------

struct GatewayConfig {
  std::string store_dir;  // empty = RAM tier only
  std::size_t serve_threads = 1;
  std::size_t service_threads = 1;
  std::size_t cache_mb = 64;
  std::size_t store_budget_mb = 256;
};

/// CPU seconds (user + sys) and peak resident set of a process.
struct ProcUsage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
ProcUsage proc_usage(pid_t pid);
/// This process: getrusage() based.
ProcUsage self_usage();

class Gateway {
 public:
  /// Spawns `nash_serve` (built beside this runner) and waits (bounded) for
  /// its "LISTENING <port>" line. Throws on failure.
  explicit Gateway(const GatewayConfig& config);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  std::uint16_t port() const { return port_; }
  ProcUsage usage() const { return proc_usage(pid_); }

  /// One JSON-lines request on a fresh connection (stats / metrics scrapes).
  cnash::util::Json query(const std::string& method);

  /// SIGTERM + graceful drain; SIGKILL after a grace period. Idempotent.
  /// Returns true when the child exited cleanly on its own.
  bool stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Kill every live Gateway child (watchdog / fatal paths).
void kill_all_children();

}  // namespace perfbench

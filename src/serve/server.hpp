#pragma once
// serve::NashServer — the Nash-serving gateway: an epoll-based, multi-threaded
// TCP front end (JSON-lines or length-prefixed binary framing, negotiated per
// connection — see protocol.hpp) multiplexing many client connections onto
// one SolverService worker pool. Three layers per solve:
//
//   canonicalize → cache → admit → solve
//
//   * Requests are canonicalized (serve/canonical.hpp) and looked up in the
//     content-addressed SolutionCache — a repeated solve is answered from the
//     cache with a byte-identical response and never reaches the solver.
//   * Identical solves already in flight are coalesced: the duplicate waits
//     on the running job instead of submitting a second one.
//   * The AdmissionController bounds queued work (global watermark +
//     per-connection in-flight cap) and sheds the rest with a structured
//     "overloaded" response carrying a retry_after_s hint.
//
// Threading model: the run() thread accepts and shards connections
// round-robin across `serve_threads` event loops. Each loop owns an epoll
// instance, an eventfd, and its connections' buffers and parse sessions —
// connection state is touched only by its owning loop thread. The loops share
// exactly one mutex (the "gate") guarding the cache, the admission controller
// and the in-flight solve registry; solves run on the SolverService pool and
// complete through callbacks that post a delivery to the owning loop's inbox
// and wake its eventfd — no blocking futures, no polling.
//
// Anytime serving: a solve with "progress":true streams interim best-so-far
// progress frames (one per completed work unit) before its final frame; with
// deadline_s set the final frame arrives within the deadline plus one unit
// (the service stops scheduling units at the deadline and reports degraded).
//
// request_stop() (async-signal-safe; the nash_serve binary calls it from its
// SIGTERM/SIGINT handler) triggers a graceful drain: stop accepting
// connections, answer new solves with "draining", finish every in-flight job
// across all loops, flush, then drain the solver pool and return from run().

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "store/store.hpp"
#include "util/fault.hpp"

namespace cnash::serve {

struct ServeOptions {
  /// Loopback by default; the gateway speaks a trusting plain-text protocol.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back via port()).
  std::uint16_t port = 0;
  /// Event-loop (gateway) threads; connections are sharded across them.
  /// 0 is treated as 1.
  std::size_t serve_threads = 1;
  /// SolverService pool size (0 = one worker per hardware thread).
  std::size_t service_threads = 0;
  AdmissionOptions admission;
  std::size_t cache_bytes = 64u << 20;
  /// Tier-2 persistent solution store directory (created on demand). Empty =
  /// RAM cache only. Solved reports are written through to disk and survive
  /// restarts: a warm hit after a restart replays byte-identically with zero
  /// solver jobs. Degraded/fallback reports are never persisted (they are
  /// never cache-inserted in the first place).
  std::string store_dir;
  /// Byte budget of the live records in the tier-2 store.
  std::size_t store_budget_bytes = 256u << 20;
  /// A connection whose buffered request (line or frame payload) exceeds this
  /// is answered with an error and closed (protocol-abuse guard).
  std::size_t max_line_bytes = 8u << 20;
  /// A connection whose buffered (unflushed) output exceeds this is aborted —
  /// the slow-reader guard: a peer that never drains its responses cannot
  /// grow the server's memory without bound.
  std::size_t max_output_bytes = 16u << 20;
  /// Fairness bound: requests one connection may dequeue per readiness
  /// wakeup. A pipelined batch beyond this is deferred to the loop's backlog
  /// (counted in the `stats` payload's served.fair_deferrals), so one
  /// connection cannot starve its loop's other connections.
  std::size_t max_requests_per_wakeup = 16;
  /// Server-side fault injection (write_stall_rate / disconnect_rate / seed;
  /// nash_serve populates it from CNASH_FAULT_* env vars). Disabled by
  /// default; solver-side fields are ignored here — they ride in on
  /// SolveRequests instead.
  util::FaultPlan fault;
  /// Print "LISTENING <port>" on stdout once bound (smoke scripts wait for
  /// this line to learn an ephemeral port).
  bool announce = false;
  /// Non-empty: enable per-request pipeline tracing and write the run's
  /// Chrome trace-event JSON (Perfetto-loadable) to this path when run()
  /// returns. Empty (default): tracing is disabled and its call sites cost
  /// one relaxed atomic load each.
  std::string trace_out;
};

class NashServer {
 public:
  explicit NashServer(ServeOptions options = {});
  ~NashServer();
  NashServer(const NashServer&) = delete;
  NashServer& operator=(const NashServer&) = delete;

  /// Bind + listen. Throws std::runtime_error (with errno text) on failure.
  void start();
  /// Bound port; valid after start().
  std::uint16_t port() const { return port_; }

  /// Blocking accept loop; spawns the event loops and returns once a
  /// requested stop has fully drained. Call start() first.
  void run();

  /// Async-signal-safe drain trigger (callable from a signal handler or
  /// another thread).
  void request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  /// The `stats` wire payload — cache, admission, store and served
  /// sections — from one snapshot. Safe while loops are running.
  util::Json stats() const;
  /// The server's instrument registry (the `metrics` wire method renders
  /// it). Scrapes are safe at any time; collect callbacks take the gate.
  obs::Registry& metrics_registry() { return registry_; }
  /// The trace recorder (enabled iff options.trace_out was set).
  obs::TraceRecorder& trace_recorder() { return trace_; }

 private:
  struct Loop;
  struct Connection;
  struct Delivery;
  struct StatsEntry;

  /// One job on the solver pool plus every response waiting on it. Guarded by
  /// gate_; the raw pointer is captured by the job's service callbacks (its
  /// address is stable and outlives the job: the entry is only freed by
  /// complete_solve, which runs exactly once).
  struct InFlight {
    GameKey key;
    bool store_in_cache = true;
    struct Waiter {
      Loop* loop;
      std::uint64_t conn_id;
      util::Json id;
      ReportMapping mapping;  // slim: perms + name, not the payoff matrices
      bool progress = false;  // wants interim frames
      std::uint64_t trace_id = 0;  // span correlation of the waiter's request
    };
    std::vector<Waiter> waiters;
  };

  void accept_ready(std::size_t& next_loop);
  void begin_drain();
  bool pending_empty();
  void shutdown_loops();
  util::Json status_payload();
  /// Every number of the `stats` payload, in wire order, from one snapshot:
  /// cache and admission under the gate, the store, the request counters.
  std::vector<StatsEntry> stats_entries() const;
  /// Register the instruments and the scrape-time mirror collector.
  void init_telemetry();
  /// Collect callback: copy the subsystem numbers of stats_entries() and the
  /// gateway gauges (service depth, connections, uptime) into the registry.
  void collect_mirrors();
  core::ServiceOptions service_options();

  // Request handling (called on a loop thread, for that loop's connection).
  void handle_request(Loop& loop, Connection& conn, WireRequest request,
                      std::uint64_t trace_id);
  void handle_solve(Loop& loop, Connection& conn, WireRequest request,
                    std::uint64_t trace_id);
  // Solve callbacks (called on a service worker thread — or inline on a loop
  // thread for a submission that resolves immediately).
  void complete_solve(InFlight* entry, core::SolveReport&& report,
                      std::exception_ptr error);
  void deliver_progress(InFlight* entry,
                        const core::ProgressSnapshot& snapshot);
  /// Push a delivery onto `loop`'s inbox and wake its eventfd. Lock order:
  /// gate_ (optional, caller's) → inbox mutex.
  static void post(Loop& loop, Delivery delivery);

  ServeOptions options_;
  /// Tier-2 persistent store; declared before cache_ (which holds a raw
  /// pointer into it) so it is destroyed after.
  std::unique_ptr<store::SolutionStore> store_;
  SolutionCache cache_;            // guarded by gate_
  AdmissionController admission_;  // guarded by gate_
  std::vector<std::unique_ptr<InFlight>> pending_;  // guarded by gate_
  /// The one cross-loop mutex: cache + admission + in-flight registry.
  /// mutable: the stats snapshot is a const read.
  mutable std::mutex gate_;

  /// Telemetry. Declared before service_ (which holds pointers into both) so
  /// they outlive the worker pool. Stage histogram/counter pointers are
  /// cached here so the per-request path never takes the registry mutex.
  obs::Registry registry_;
  obs::TraceRecorder trace_;
  std::chrono::steady_clock::time_point started_;
  obs::Histogram* stage_parse_ = nullptr;
  obs::Histogram* stage_canonicalize_ = nullptr;
  obs::Histogram* stage_cache_lookup_ = nullptr;
  obs::Histogram* stage_admit_ = nullptr;
  obs::Histogram* stage_render_ = nullptr;
  obs::Histogram* stage_flush_ = nullptr;
  obs::Histogram* stage_request_ = nullptr;
  obs::Histogram* solve_wall_ = nullptr;
  obs::Counter* re_swap_proposals_ = nullptr;
  obs::Counter* re_swap_accepts_ = nullptr;
  obs::Counter* fallback_samples_ = nullptr;
  obs::Counter* degraded_reports_ = nullptr;
  // The gateway's request counters (the `stats` payload's served section,
  // bar the two it derives from admission), bumped from loop threads and
  // service callbacks alike.
  obs::Counter* requests_ = nullptr;  // parsed, both framings, malformed too
  obs::Counter* solves_ok_ = nullptr;         // successful solve responses
  obs::Counter* cache_hits_ = nullptr;        // ... of which cache hits
  obs::Counter* errors_ = nullptr;            // error responses of any code
  obs::Counter* progress_frames_ = nullptr;   // interim anytime frames
  obs::Counter* fair_deferrals_ = nullptr;    // bursts cut at the fair bound
  obs::Counter* write_stalls_ = nullptr;      // injected short writes
  obs::Counter* injected_disconnects_ = nullptr;  // injected aborts
  obs::Counter* overflow_closed_ = nullptr;   // aborted at max_output_bytes
  obs::Counter* uncached_reports_ = nullptr;  // degraded/fallback, not cached

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 1;  // accept thread only
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> connections_{0};

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};
  /// Tells the event loops to finish up (drain inbox, flush, close, exit);
  /// set only after the in-flight registry is empty.
  std::atomic<bool> loops_stop_{false};

  /// Declared last: destroyed (and therefore drained) first, so no service
  /// callback can touch the gate, cache or loops during teardown.
  core::SolverService service_;
};

}  // namespace cnash::serve

// nash_serve — the Nash-serving gateway binary: a single-process TCP server
// speaking the newline-delimited JSON protocol of src/serve/ on top of one
// SolverService pool, with a content-addressed solution cache and admission
// control (see README "Serving").
//
//   nash_serve [--port P] [--threads N] [--serve-threads N] [--queue-depth N]
//              [--conn-inflight N] [--cache-mb MB] [--store-dir DIR]
//              [--store-budget-mb MB] [--retry-after S] [--trace-out FILE]
//              [--quiet]
//
// --threads sizes the SolverService worker pool; --serve-threads sizes the
// epoll event-loop pool that connections are sharded across (default 1).
//
// --trace-out FILE enables per-request pipeline tracing (README
// "Observability") and writes the run's spans as Chrome trace-event JSON to
// FILE on graceful shutdown — load it in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Tracing is off (and near-free) without the flag.
//
// --store-dir enables the tier-2 persistent solution store (README
// "Persistence"): solved reports are written through to an append-only log
// in DIR and survive restarts — pointing a fresh gateway at a populated DIR
// serves previously solved requests byte-identically with zero solver jobs.
// --store-budget-mb bounds the live bytes on disk (default 256).
//
// --port 0 (default) binds an ephemeral loopback port; the bound port is
// announced on stdout as "LISTENING <port>" so scripts can pick it up.
// SIGTERM / SIGINT trigger a graceful drain: stop accepting, answer new
// solves with {"code":"draining"}, finish in-flight jobs, flush, exit 0.
//
// Server-side fault injection (chaos testing; README "Failure model") is
// read from the environment: CNASH_FAULT_SEED, CNASH_FAULT_WRITE_STALL,
// CNASH_FAULT_DISCONNECT. All off by default.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <cstdlib>

#include "serve/server.hpp"

namespace {

cnash::serve::NashServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server) g_server->request_stop();
}

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--threads N] [--serve-threads N]\n"
               "       [--queue-depth N] [--conn-inflight N] [--cache-mb MB]\n"
               "       [--store-dir DIR] [--store-budget-mb MB] "
               "[--retry-after S]\n"
               "       [--trace-out FILE] [--quiet]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  cnash::serve::ServeOptions options;
  options.announce = true;
  options.fault = cnash::util::fault_plan_from_env();

  for (int a = 1; a < argc; ++a) {
    auto next = [&](const char* flag) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++a];
    };
    if (!std::strcmp(argv[a], "--port"))
      options.port =
          static_cast<std::uint16_t>(std::strtoul(next("--port"), nullptr, 10));
    else if (!std::strcmp(argv[a], "--threads"))
      options.service_threads = std::strtoul(next("--threads"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--serve-threads"))
      options.serve_threads =
          std::strtoul(next("--serve-threads"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--queue-depth"))
      options.admission.max_queue_depth =
          std::strtoul(next("--queue-depth"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--conn-inflight"))
      options.admission.per_connection_inflight =
          std::strtoul(next("--conn-inflight"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--cache-mb"))
      options.cache_bytes =
          std::strtoul(next("--cache-mb"), nullptr, 10) << 20;
    else if (!std::strcmp(argv[a], "--store-dir"))
      options.store_dir = next("--store-dir");
    else if (!std::strcmp(argv[a], "--store-budget-mb"))
      options.store_budget_bytes =
          std::strtoul(next("--store-budget-mb"), nullptr, 10) << 20;
    else if (!std::strcmp(argv[a], "--retry-after"))
      options.admission.retry_after_s =
          std::strtod(next("--retry-after"), nullptr);
    else if (!std::strcmp(argv[a], "--trace-out"))
      options.trace_out = next("--trace-out");
    else if (!std::strcmp(argv[a], "--quiet"))
      options.announce = false;
    else {
      std::fprintf(stderr, "unknown flag %s\n", argv[a]);
      print_usage(argv[0]);
      return 2;
    }
  }

  try {
    cnash::serve::NashServer server(options);
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    server.start();
    server.run();  // returns after a signal-triggered graceful drain
    const cnash::util::Json stats = server.stats();
    const auto count = [&stats](const char* section, const char* key) {
      return static_cast<std::size_t>(stats.at(section).at(key).as_number());
    };
    std::fprintf(stderr,
                 "nash_serve: drained — %zu solves served (%zu cache hits, "
                 "%zu coalesced), %zu errors, %zu jobs submitted\n",
                 count("served", "solves_ok"), count("cache", "hits"),
                 count("served", "coalesced"), count("served", "errors"),
                 count("served", "jobs_submitted"));
    if (stats.at("store").at("enabled").as_bool())
      std::fprintf(stderr,
                   "nash_serve: store — %zu entries in %zu segments, "
                   "%zu hits / %zu appends, %.2fx compression\n",
                   count("store", "entries"), count("store", "segments"),
                   count("store", "hits"), count("store", "appends"),
                   stats.at("store").at("compression_ratio").as_number());
    if (!options.trace_out.empty()) {
      const cnash::obs::TraceRecorder& trace = server.trace_recorder();
      std::fprintf(stderr,
                   "nash_serve: trace — %zu spans written to %s"
                   " (%zu dropped)\n",
                   trace.event_count(), options.trace_out.c_str(),
                   trace.dropped());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nash_serve: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}

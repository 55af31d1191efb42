#pragma once
// Shared harness for the solver-comparison benches (Table 1, Fig. 8, Fig. 9,
// Fig. 10): runs the three paper instances through C-Nash (full hardware
// model) and both D-Wave proxies, classifying every run against the exact
// ground truth.
//
// All three solver families dispatch through the shared core::SolverService
// as concurrent jobs — the pool schedules run-granular units across them
// (--threads N caps each job's in-flight units; default: all hardware
// threads) with bit-identical results for any thread count.
//
// Scale note: the paper uses 5000 SA runs per instance; the default here is
// smaller so every bench binary finishes in seconds. Pass a run count as the
// first positional argument to scale up (e.g.
// `bench_table1_success_rate 5000 --threads 8`).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"
#include "qubo/dwave_proxy.hpp"
#include "util/build_info.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cnash::bench {

struct InstanceEvaluation {
  game::BenchmarkInstance instance;
  std::vector<game::Equilibrium> ground_truth;
  core::SolverReport cnash;
  core::SolverReport dwave_2000q;
  core::SolverReport dwave_advantage;
  std::size_t runs;
};

/// Paper-reported reference numbers (Table 1 / Fig. 10), kept alongside the
/// measured proxies; "-1" where the paper reports no value.
struct PaperReference {
  double success_2000q;
  double success_advantage;
  double success_cnash;
  double speedup_2000q;     // time-to-solution ratio vs C-Nash
  double speedup_advantage;
};

inline PaperReference paper_reference(std::size_t instance_index) {
  switch (instance_index) {
    case 0:
      return {99.62, 98.04, 100.0, 157.9, 79.0};
    case 1:
      return {88.16, 72.36, 88.94, 105.3, 52.6};
    default:
      return {-1.0, 13.30, 81.90, -1.0, 18.4};
  }
}

/// Command line shared by the solver benches:
/// `[runs] [--threads N] [--json <path>]`.
struct CliOptions {
  std::size_t runs = 0;     // 0 = per-instance default
  std::size_t threads = 0;  // 0 = one worker per hardware thread
  std::string json_path;    // empty = no JSON output
};

inline CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      cli.threads = std::strtoul(arg + 10, nullptr, 10);
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      cli.threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      cli.json_path = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      cli.json_path = argv[++i];
    } else {
      const long v = std::strtol(arg, nullptr, 10);
      if (v > 0) cli.runs = static_cast<std::size_t>(v);
    }
  }
  return cli;
}

/// Machine-readable bench output (--json <path>): every bench serialises its
/// headline numbers into a BENCH_<name>.json util::Json document, so the
/// perf trajectory is tracked across commits by tooling instead of eyeballs.
/// Construct at bench start, fill root() with results, call finish() last.
/// --json takes a file path, or a directory to use the default name; without
/// --json it is a no-op. `wall_clock_s` covers construct→finish; pass the
/// total iteration count (e.g. SA runs) to also record throughput.
class JsonReport {
 public:
  JsonReport(std::string name, const CliOptions& cli)
      : name_(std::move(name)),
        path_(cli.json_path),
        start_(std::chrono::steady_clock::now()) {
    root_.set("bench", name_);
    root_.set("git_sha", util::build_git_sha());
    util::Json cfg = util::Json::object();
    cfg.set("runs", cli.runs);
    cfg.set("threads", cli.threads);
    const unsigned hw = std::thread::hardware_concurrency();
    cfg.set("threads_resolved",
            cli.threads > 0 ? cli.threads
                            : static_cast<std::size_t>(hw > 0 ? hw : 1));
    root_.set("config", std::move(cfg));
  }

  util::Json& root() { return root_; }

  bool finish(double iterations = 0.0) {
    if (path_.empty()) return true;
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    root_.set("wall_clock_s", dt);
    if (iterations > 0.0 && dt > 0.0)
      root_.set("iterations_per_sec", iterations / dt);
    std::string path = path_;
    struct stat st{};
    const bool is_dir =
        path.back() == '/' ||
        (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode));
    if (is_dir) {
      if (path.back() != '/') path += '/';
      path += "BENCH_" + name_ + ".json";
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::string text = root_.pretty(2);
    text += '\n';
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  util::Json root_ = util::Json::object();
};

inline InstanceEvaluation evaluate_instance(
    const game::BenchmarkInstance& inst, std::size_t runs,
    std::size_t threads = 0, std::uint64_t seed = 0xDA11A5) {
  InstanceEvaluation ev{inst, game::all_equilibria(inst.game), {}, {}, {}, runs};

  // All three solver jobs go through the shared SolverService concurrently;
  // the pool schedules run-granular units across them. Results are
  // bit-identical for any pool size / --threads cap (keyed per-unit streams).
  // Platform-stable seed derivation per backend (std::hash is
  // implementation-defined and would make archived bench numbers differ
  // across standard libraries).
  auto mix_seed = [](std::uint64_t seed_in, const std::string& tag) {
    std::uint64_t state = seed_in;
    for (const unsigned char c : tag) {
      state ^= c;
      state = util::splitmix64(state);
    }
    return state;
  };
  auto request_for = [&](const std::string& backend) {
    core::SolveRequest req(inst.game);
    req.backend = backend;
    req.runs = runs;
    // The proxies get stream families of their own, like the pre-service
    // drivers that seeded each proxy per solver name.
    req.seed = backend == "hardware-sa" ? seed : mix_seed(seed, backend);
    req.intervals = inst.intervals;
    req.sa.iterations = inst.sa_iterations;
    req.nash_eps = 1e-9;
    req.max_parallelism = threads;
    return req;
  };
  core::SolverService& service = core::SolverService::shared();
  auto cnash = service.submit(request_for("hardware-sa"));
  auto dwave_2000q = service.submit(request_for("dwave-2000q6"));
  auto dwave_advantage = service.submit(request_for("dwave-advantage41"));

  ev.cnash = core::tally(cnash.get().samples, ev.ground_truth);
  ev.dwave_2000q = core::tally(dwave_2000q.get().samples, ev.ground_truth);
  ev.dwave_advantage =
      core::tally(dwave_advantage.get().samples, ev.ground_truth);
  return ev;
}

/// Default run counts per instance, sized so each bench finishes in seconds.
inline std::size_t default_runs_for(std::size_t instance_index) {
  return instance_index == 2 ? 60 : 200;
}

/// JSON node for one instance evaluation, shared by the solver-comparison
/// benches.
inline util::Json report_instance(const InstanceEvaluation& ev) {
  util::Json node = util::Json::object();
  node.set("game", ev.instance.game.name());
  node.set("runs", ev.runs);
  node.set("ground_truth_ne", ev.ground_truth.size());
  auto solver = [&](const std::string& key, const char* backend,
                    const core::SolverReport& r) {
    util::Json s = util::Json::object();
    s.set("backend", backend);
    s.set("success_rate", r.success_rate());
    s.set("distinct_found", r.distinct_found());
    node.set(key, std::move(s));
  };
  solver("cnash", "hardware-sa", ev.cnash);
  solver("dwave_2000q", "dwave-2000q6", ev.dwave_2000q);
  solver("dwave_advantage", "dwave-advantage41", ev.dwave_advantage);
  return node;
}

}  // namespace cnash::bench

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
#include <cmath>
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
#include "util/rng.hpp"

// Git revision baked in by CMake so every BENCH_*.json is attributable to a
// commit when archived by CI.
#ifndef CNASH_GIT_SHA
#define CNASH_GIT_SHA "unknown"
#endif

namespace cnash::bench {

// ---- Machine-readable bench output (--json <path>) --------------------------
//
// Every bench can serialise its headline numbers (name, config, wall clock,
// iteration throughput, per-instance results) into a BENCH_*.json file so the
// perf trajectory is tracked across PRs by tooling instead of eyeballs.

/// Minimal ordered JSON tree: objects keep insertion order, numbers print
/// with round-trip precision. Only what the benches need — no parsing.
class Json {
 public:
  Json& set(const std::string& key, double v) {
    return child(key, make_number(v));
  }
  Json& set(const std::string& key, std::size_t v) {
    return set(key, static_cast<double>(v));
  }
  Json& set(const std::string& key, int v) {
    return set(key, static_cast<double>(v));
  }
  Json& set(const std::string& key, const std::string& v) {
    Json j;
    j.type_ = Type::kString;
    j.str_ = v;
    return child(key, std::move(j));
  }
  Json& set(const std::string& key, const char* v) {
    return set(key, std::string(v));
  }
  Json& set(const std::string& key, bool v) {
    Json j;
    j.type_ = Type::kBool;
    j.flag_ = v;
    return child(key, std::move(j));
  }
  /// Nested object / array members (created on demand).
  Json& obj(const std::string& key) { return member(key, Type::kObject); }
  Json& arr(const std::string& key) { return member(key, Type::kArray); }
  /// Appends an object element to an array and returns it.
  Json& push() {
    Json j;
    j.type_ = Type::kObject;
    children_.emplace_back("", std::move(j));
    return children_.back().second;
  }

  std::string dump(int depth = 0) const {
    switch (type_) {
      case Type::kNumber: {
        // Infinite TTS (zero success rate) and the like have no JSON
        // representation — emit null so the artifact stays parseable.
        if (!std::isfinite(num_)) return "null";
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", num_);
        return buf;
      }
      case Type::kBool:
        return flag_ ? "true" : "false";
      case Type::kString:
        return quote(str_);
      case Type::kObject:
      case Type::kArray: {
        const bool is_obj = type_ == Type::kObject;
        std::string out(is_obj ? "{" : "[");
        for (std::size_t i = 0; i < children_.size(); ++i) {
          out += i ? ",\n" : "\n";
          out.append((depth + 1) * 2, ' ');
          if (is_obj) {
            out += quote(children_[i].first);
            out += ": ";
          }
          out += children_[i].second.dump(depth + 1);
        }
        if (!children_.empty()) {
          out += '\n';
          out.append(depth * 2, ' ');
        }
        out += is_obj ? '}' : ']';
        return out;
      }
    }
    return "null";
  }

 private:
  enum class Type { kObject, kArray, kNumber, kString, kBool };

  static Json make_number(double v) {
    Json j;
    j.type_ = Type::kNumber;
    j.num_ = v;
    return j;
  }
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
    return out;
  }
  Json& child(const std::string& key, Json&& j) {
    for (auto& kv : children_)
      if (kv.first == key) {
        kv.second = std::move(j);
        return *this;
      }
    children_.emplace_back(key, std::move(j));
    return *this;
  }
  Json& member(const std::string& key, Type t) {
    for (auto& kv : children_)
      if (kv.first == key) return kv.second;
    Json j;
    j.type_ = t;
    children_.emplace_back(key, std::move(j));
    return children_.back().second;
  }

  Type type_ = Type::kObject;
  double num_ = 0.0;
  bool flag_ = false;
  std::string str_;
  std::vector<std::pair<std::string, Json>> children_;
};

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

/// Scoped JSON report: construct at bench start, fill root() with results,
/// call finish() last. Writes BENCH_<name>.json under --json <path> (a file
/// path, or a directory to use the default name); without --json it is a
/// no-op. `wall_clock_s` covers construct→finish; pass the total iteration
/// count (e.g. SA runs) to also record throughput.
class JsonReport {
 public:
  JsonReport(std::string name, const CliOptions& cli)
      : name_(std::move(name)),
        path_(cli.json_path),
        start_(std::chrono::steady_clock::now()) {
    root_.set("bench", name_);
    root_.set("git_sha", CNASH_GIT_SHA);
    Json& cfg = root_.obj("config");
    cfg.set("runs", cli.runs);
    cfg.set("threads", cli.threads);
    const unsigned hw = std::thread::hardware_concurrency();
    cfg.set("threads_resolved",
            cli.threads > 0 ? cli.threads
                            : static_cast<std::size_t>(hw > 0 ? hw : 1));
  }

  Json& root() { return root_; }

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
    std::string text = root_.dump();
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
  Json root_;
};

/// Kept for drivers that only take a run count.
inline std::size_t runs_from_argv(int argc, char** argv,
                                  std::size_t default_runs) {
  const CliOptions cli = parse_cli(argc, argv);
  return cli.runs > 0 ? cli.runs : default_runs;
}

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

/// One-line JSON serialisation of an instance evaluation, shared by the
/// solver-comparison benches.
inline void report_instance(Json& node, const InstanceEvaluation& ev) {
  node.set("game", ev.instance.game.name());
  node.set("runs", ev.runs);
  node.set("ground_truth_ne", ev.ground_truth.size());
  auto solver = [&](const std::string& key, const char* backend,
                    const core::SolverReport& r) {
    Json& s = node.obj(key);
    s.set("backend", backend);
    s.set("success_rate", r.success_rate());
    s.set("distinct_found", r.distinct_found());
  };
  solver("cnash", "hardware-sa", ev.cnash);
  solver("dwave_2000q", "dwave-2000q6", ev.dwave_2000q);
  solver("dwave_advantage", "dwave-advantage41", ev.dwave_advantage);
}

}  // namespace cnash::bench

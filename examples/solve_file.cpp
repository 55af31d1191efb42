// CLI driver: solve arbitrary bimatrix games from text files (or stdin)
// through the SolverService — any registered backend, N games per invocation
// (jobs run concurrently on the shared worker pool), cross-checked against
// exact ground truth.
//
//   solve_file [--backend NAME] [--runs N] [--iterations N] [--intervals I]
//              [--exact] [--scale S] [--threads T] [--seed S]
//              [--tile-rows R] [--tile-cols C] [--json]
//              [--list-backends] <game-file|-> [<game-file> ...]
//
// Game file format (see src/game/parse.hpp):
//   name: my game
//   M:
//   2 0
//   0 1
//   N:
//   1 0
//   0 2
//
// --backend picks a registry key (hardware-sa, hardware-sa-tiled, exact-sa,
// dwave-2000q6, dwave-advantage41, lemke-howson, support-enum); --exact is an
// alias for --backend exact-sa. --scale multiplies payoffs before integer
// coding (use when payoffs are fractional, e.g. --scale 10 for one decimal
// place); --threads caps each job's in-flight runs on the service pool
// (0 = all workers; results are identical for any T); --tile-rows/--tile-cols
// set the physical tile dimensions of the hardware-sa-tiled chip model;
// --json replaces the human summary with one machine-readable JSON report
// line per game (the core/report_json.hpp schema shared with nash_serve —
// no ground-truth cross-check). The human summary skips its ground truth,
// and says so, for a game with more than core::kMaxSupportPairs support
// pairs: support enumeration would not finish.
//
// Exit codes: 0 success, 2 usage / malformed game file (reported per file
// with line numbers), 3 invalid solve request (rejected at submit time, e.g.
// --runs 0 or an unknown --backend), 1 runtime failure.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <vector>

#include "core/backend.hpp"
#include "core/metrics.hpp"
#include "core/report_json.hpp"
#include "core/service.hpp"
#include "game/parse.hpp"
#include "game/support_enum.hpp"
#include "util/table.hpp"

namespace {

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--backend NAME] [--runs N] [--iterations N] "
               "[--intervals I]\n"
               "       [--exact] [--scale S] [--threads T] [--seed S] "
               "[--tile-rows R] [--tile-cols C]\n"
               "       [--json] [--list-backends] <game-file|-> "
               "[<game-file> ...]\n",
               argv0);
}

std::string strategy_string(const char* label, const cnash::la::Vector& v) {
  std::string s = std::string(label) + " = (";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += cnash::util::Table::num(v[i], 3) + (i + 1 < v.size() ? ", " : ")");
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cnash;

  std::string backend = "hardware-sa";
  std::size_t runs = 100, iterations = 10000, threads = 0;
  std::uint32_t intervals = 12;
  std::uint64_t seed = 0xC0FFEE;
  double scale = 1.0;
  bool json = false;
  chip::ChipConfig chip;
  std::vector<std::string> files;

  for (int a = 1; a < argc; ++a) {
    auto next = [&](const char* flag) {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++a];
    };
    if (!std::strcmp(argv[a], "--backend"))
      backend = next("--backend");
    else if (!std::strcmp(argv[a], "--runs"))
      runs = std::strtoul(next("--runs"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--iterations"))
      iterations = std::strtoul(next("--iterations"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--intervals"))
      intervals = static_cast<std::uint32_t>(
          std::strtoul(next("--intervals"), nullptr, 10));
    else if (!std::strcmp(argv[a], "--scale"))
      scale = std::strtod(next("--scale"), nullptr);
    else if (!std::strcmp(argv[a], "--threads"))
      threads = std::strtoul(next("--threads"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--seed"))
      seed = std::strtoull(next("--seed"), nullptr, 0);
    else if (!std::strcmp(argv[a], "--tile-rows"))
      chip.tile_rows = std::strtoul(next("--tile-rows"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--tile-cols"))
      chip.tile_cols = std::strtoul(next("--tile-cols"), nullptr, 10);
    else if (!std::strcmp(argv[a], "--json"))
      json = true;
    else if (!std::strcmp(argv[a], "--exact"))
      backend = "exact-sa";
    else if (!std::strcmp(argv[a], "--list-backends")) {
      for (const std::string& name : core::SolverRegistry::global().names())
        std::printf("%-18s %s\n", name.c_str(),
                    core::SolverRegistry::global().at(name).describe().c_str());
      return 0;
    } else if (argv[a][0] == '-' && std::strcmp(argv[a], "-") != 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[a]);
      print_usage(argv[0]);
      return 2;
    } else {
      files.push_back(argv[a]);
    }
  }

  if (files.empty()) {
    print_usage(argv[0]);
    return 2;
  }

  // ---- Parse every game file up front; report ALL malformed inputs. --------
  std::vector<game::BimatrixGame> games;
  bool parse_failed = false;
  for (const std::string& file : files) {
    try {
      if (file == "-") {
        games.push_back(game::parse_game(std::cin));
      } else {
        std::ifstream in(file);
        if (!in) {
          std::fprintf(stderr, "error: cannot open %s\n", file.c_str());
          parse_failed = true;
          continue;
        }
        games.push_back(game::parse_game(in));
      }
    } catch (const game::ParseError& e) {
      std::fprintf(stderr, "error: %s: parse error at %s\n", file.c_str(),
                   e.what());
      parse_failed = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: invalid game: %s\n", file.c_str(),
                   e.what());
      parse_failed = true;
    }
  }
  if (parse_failed) return 2;

  // ---- Submit one job per game; all run concurrently on the shared pool. ---
  core::SolverService& service = core::SolverService::shared();
  std::vector<std::future<core::SolveReport>> futures;
  futures.reserve(games.size());
  for (const game::BimatrixGame& g : games) {
    core::SolveRequest req(g);
    req.backend = backend;
    req.runs = runs;
    req.seed = seed;
    req.intervals = intervals;
    req.sa.iterations = iterations;
    req.hardware.value_scale = scale;
    req.chip = chip;
    req.max_parallelism = threads;
    futures.push_back(service.submit(std::move(req)));
  }

  for (std::size_t i = 0; i < games.size(); ++i) {
    const game::BimatrixGame& g = games[i];
    core::SolveReport report;
    try {
      report = futures[i].get();
    } catch (const std::invalid_argument& e) {
      // Rejected at submit time (validate_request / registry lookup).
      std::fprintf(stderr, "error: %s: invalid request: %s\n",
                   files[i].c_str(), e.what());
      return 3;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s: %s\n", files[i].c_str(), e.what());
      return 1;
    }

    if (json) {
      std::printf("%s\n", core::report_to_json(report).dump().c_str());
      continue;
    }

    std::printf("%s\n", g.to_string().c_str());

    const std::size_t n = g.num_actions1(), m = g.num_actions2();
    const bool ground_truth =
        core::support_pairs(n, m, core::kMaxSupportPairs) <=
        core::kMaxSupportPairs;
    game::SupportEnumResult gt_result;
    if (ground_truth) {
      gt_result = game::support_enumeration(g);
      std::printf("ground truth: %zu equilibria%s\n\n",
                  gt_result.equilibria.size(),
                  gt_result.degenerate_flag
                      ? " (degenerate game — the list may be incomplete)"
                      : "");
    } else {
      std::printf(
          "ground truth: skipped (support enumeration of a %zux%zu game "
          "examines more than %llu support pairs)\n\n",
          n, m, static_cast<unsigned long long>(core::kMaxSupportPairs));
    }

    const auto cls = core::tally(report.samples, gt_result.equilibria);

    const std::string distinct_text =
        ground_truth ? ", distinct " + std::to_string(cls.distinct_found()) +
                           "/" + std::to_string(cls.target())
                     : "";
    std::printf("%s: %zu samples, success %s%%%s, modeled %.4g s\n\n",
                report.backend.c_str(), report.runs(),
                core::percent(cls.success_rate()).c_str(),
                distinct_text.c_str(), report.modeled_time_s);

    std::map<std::string, std::pair<core::SolveSample, int>> distinct;
    for (const auto& s : report.samples) {
      if (!s.is_nash) continue;
      auto [it, fresh] = distinct.try_emplace(s.key(), s, 0);
      ++it->second.second;
    }
    for (const auto& [key, entry] : distinct) {
      const auto& s = entry.first;
      std::printf("%s %s  %s   [%d hits]\n",
                  game::is_pure_profile(s.p, s.q) ? "pure " : "mixed",
                  strategy_string("p", s.p).c_str(),
                  strategy_string("q", s.q).c_str(), entry.second);
    }
    if (i + 1 < games.size()) std::printf("\n%s\n\n", std::string(72, '-').c_str());
  }
  return 0;
}

// Quickstart: solve "Battle of the Sexes" on the C-Nash hardware model.
//
//   $ ./quickstart [--threads N]
//
// Programs the FeFET bi-crossbar with the payoff matrices, runs a batch of
// two-phase simulated-annealing descents as one "hardware-sa" SolveRequest on
// the shared SolverService (at most N runs in flight — same results for any
// N), and prints every distinct Nash equilibrium found (pure and mixed),
// cross-checked against the exact support-enumeration ground truth.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::size_t threads = 0;  // 0 = one worker per hardware thread
  for (int a = 1; a + 1 < argc; ++a)
    if (!std::strcmp(argv[a], "--threads"))
      threads = std::strtoul(argv[a + 1], nullptr, 10);

  const game::BimatrixGame g = game::battle_of_sexes();
  std::printf("%s\n", g.to_string().c_str());

  // 1. Configure the solve: probability grid I=12 (the mixed equilibrium
  //    (2/3,1/3)x(1/3,2/3) lies exactly on this grid), 10000 SA iterations as
  //    in the paper, full hardware model (device variability, WTA offsets,
  //    ADC quantization). Each run gets its own keyed RNG stream and its own
  //    hardware instance, so the batch parallelises without changing results.
  core::SolveRequest request(g);
  request.backend = "hardware-sa";
  request.runs = 50;
  request.intervals = 12;
  request.sa.iterations = 10000;
  request.seed = 2024;
  request.nash_eps = 1e-9;
  request.max_parallelism = threads;

  // 2. Run 50 annealing descents; every sample comes back ε-Nash-verified.
  const core::SolveReport solved =
      core::SolverService::shared().solve(std::move(request));
  const auto& outcomes = solved.samples;

  // 3. Count hits against the exact ground truth.
  const auto ground_truth = game::all_equilibria(g);
  const auto report = core::tally(outcomes, ground_truth);

  std::printf("SA runs: %zu   success rate: %s%%   distinct NE found: %zu/%zu\n\n",
              report.runs, core::percent(report.success_rate()).c_str(),
              report.distinct_found(), report.target());

  std::map<std::string, std::pair<core::SolveSample, int>> distinct;
  for (const auto& o : outcomes) {
    if (!o.is_nash) continue;
    auto [it, fresh] = distinct.try_emplace(o.key(), o, 0);
    ++it->second.second;
  }
  for (const auto& [key, entry] : distinct) {
    const auto& o = entry.first;
    std::printf("NE %s  p = (%.3f, %.3f)  q = (%.3f, %.3f)   hit %d times, f = %.4f\n",
                game::is_pure_profile(o.p, o.q) ? "(pure) " : "(mixed)",
                o.p[0], o.p[1], o.q[0], o.q[1], entry.second, o.objective);
  }
  return 0;
}

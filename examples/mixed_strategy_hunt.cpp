// Mixed-strategy hunt: the capability quantum S-QUBO annealers lack.
//
// Runs the Bird Game (3 actions, 7 equilibria of which 4 are mixed) through
// both pipelines: the D-Wave-style S-QUBO proxy (binary variables — pure
// strategies only) and C-Nash (quantized mixed strategies on the I=12 grid),
// and shows which equilibria each one can reach.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"
#include "qubo/dwave_proxy.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::size_t threads = 0;  // 0 = one run per service worker
  for (int a = 1; a + 1 < argc; ++a)
    if (!std::strcmp(argv[a], "--threads"))
      threads = std::strtoul(argv[a + 1], nullptr, 10);

  const game::BimatrixGame g = game::bird_game();
  const auto ground_truth = game::all_equilibria(g);
  std::printf("%s: %zu equilibria in ground truth\n\n", g.name().c_str(),
              ground_truth.size());

  // --- S-QUBO / D-Wave proxy ------------------------------------------------
  util::Rng rng(7);
  const qubo::DWaveProxy proxy(g, qubo::dwave_advantage41_config());
  std::vector<core::SolveSample> reads = proxy.run(300, rng);
  core::verify_samples(g, 1e-9, reads);
  const auto dwave = core::tally(reads, ground_truth);

  // --- C-Nash ---------------------------------------------------------------
  core::SolveRequest request(g);
  request.backend = "hardware-sa";
  request.runs = 300;
  request.intervals = 12;
  request.sa.iterations = 15000;
  request.seed = 99;
  request.nash_eps = 1e-9;
  request.max_parallelism = threads;
  const auto cnash = core::tally(
      core::SolverService::shared().solve(std::move(request)).samples,
      ground_truth);

  util::Table table({"equilibrium", "type", "S-QUBO proxy", "C-Nash"});
  for (std::size_t i = 0; i < ground_truth.size(); ++i) {
    const auto& e = ground_truth[i];
    char desc[128];
    std::snprintf(desc, sizeof desc, "p=(%.2f,%.2f,%.2f)", e.p[0], e.p[1],
                  e.p[2]);
    table.add_row({desc, e.pure ? "pure" : "mixed",
                   dwave.hits[i] ? "found" : "missed",
                   cnash.hits[i] ? "found" : "missed"});
  }
  std::printf("%s\n", table.pretty().c_str());
  std::printf("S-QUBO proxy: %zu/%zu distinct (%s%% success)\n",
              dwave.distinct_found(), dwave.target(),
              core::percent(dwave.success_rate()).c_str());
  std::printf("C-Nash:       %zu/%zu distinct (%s%% success)\n",
              cnash.distinct_found(), cnash.target(),
              core::percent(cnash.success_rate()).c_str());
  return 0;
}

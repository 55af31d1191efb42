// End-to-end integration tests: the full C-Nash stack (game -> bi-crossbar ->
// WTA -> two-phase SA -> metrics) against the ground-truth solvers, plus the
// S-QUBO / D-Wave proxy pipeline on the same games.

#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "core/metrics.hpp"
#include "core/service.hpp"
#include "core/timing.hpp"
#include "game/games.hpp"
#include "game/strategy.hpp"
#include "game/support_enum.hpp"
#include "qubo/dwave_proxy.hpp"

namespace cnash::core {
namespace {

/// `runs` SA runs of `backend` on `g`, ε-Nash-verified at 1e-9.
std::vector<SolveSample> solve(const game::BimatrixGame& g,
                               std::size_t runs, std::uint64_t seed,
                               std::size_t iterations,
                               std::uint32_t intervals = 12,
                               const char* backend = "hardware-sa") {
  SolveRequest req(g);
  req.backend = backend;
  req.runs = runs;
  req.intervals = intervals;
  req.sa.iterations = iterations;
  req.seed = seed;
  req.nash_eps = 1e-9;
  return SolverService::shared().solve(std::move(req)).samples;
}

/// `reads` D-Wave proxy reads off one stream, verified like a backend would.
std::vector<SolveSample> proxy_reads(const game::BimatrixGame& g,
                                     qubo::DWaveConfig config,
                                     std::size_t reads, std::uint64_t seed) {
  util::Rng rng(seed);
  const qubo::DWaveProxy proxy(g, std::move(config));
  std::vector<SolveSample> samples = proxy.run(reads, rng);
  verify_samples(g, 1e-9, samples);
  return samples;
}

TEST(Integration, CNashFindsAllBattleOfSexesSolutionsOnHardware) {
  const auto g = game::battle_of_sexes();
  const auto report = tally(solve(g, 60, 91, 6000), game::all_equilibria(g));
  EXPECT_GE(report.success_rate(), 0.9);
  EXPECT_EQ(report.distinct_found(), 3u);
}

TEST(Integration, CNashFindsMixedBirdGameSolutionsOnHardware) {
  const auto g = game::bird_game();
  const auto report = tally(solve(g, 80, 92, 8000), game::all_equilibria(g));
  EXPECT_GE(report.success_rate(), 0.6);
  EXPECT_GT(report.mixed_successes, 0u);
  EXPECT_GE(report.distinct_found(), 5u);
}

TEST(Integration, DWaveProxyFindsOnlyPureSolutions) {
  const auto g = game::bird_game();
  const auto report =
      tally(proxy_reads(g, qubo::dwave_2000q6_config(), 100, 93),
            game::all_equilibria(g));
  EXPECT_EQ(report.mixed_successes, 0u);  // binary variables: pure only
  EXPECT_LE(report.distinct_found(), 3u);
}

TEST(Integration, CNashBeatsDWaveProxyOnSolutionCoverage) {
  // The headline qualitative claim: C-Nash recovers pure AND mixed equilibria,
  // the S-QUBO annealer only a subset of the pure ones.
  const auto g = game::bird_game();
  const auto gt = game::all_equilibria(g);
  const auto cnash_report = tally(solve(g, 80, 94, 8000), gt);
  const auto dwave_report =
      tally(proxy_reads(g, qubo::dwave_advantage41_config(), 80, 95), gt);
  EXPECT_GT(cnash_report.distinct_found(), dwave_report.distinct_found());
}

TEST(Integration, CNashTimeToSolutionBeatsDWaveModel) {
  const xbar::MappingGeometry geom{2, 2, 12, 2};
  const CNashTimingModel cnash_t;
  const DWaveTimingModel dwave_t(dwave_2000q6_timing());
  const double c = cnash_t.time_to_solution_s(geom, 10000, 1.0);
  const double d = dwave_t.time_to_solution_s(0.99);
  EXPECT_GT(d / c, 50.0);
}

TEST(Integration, ExactAndHardwareBackendsAgreeOnSuccess) {
  const auto g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  const auto rh = tally(solve(g, 40, 96, 5000), gt);
  const auto rs = tally(solve(g, 40, 96, 5000, 12, "exact-sa"), gt);
  EXPECT_NEAR(rh.success_rate(), rs.success_rate(), 0.25);
}

TEST(Integration, ModifiedPdHardwareRunsEndToEnd) {
  // Smoke-scale version of the paper's largest instance (I = 60 grid).
  const auto outcomes =
      solve(game::modified_prisoners_dilemma(), 3, 97, 3000, /*intervals=*/60);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(game::is_distribution(o.p));
    EXPECT_TRUE(game::is_distribution(o.q));
    EXPECT_GE(o.objective, -1.0);  // hardware noise can dip slightly below 0
  }
}

}  // namespace
}  // namespace cnash::core

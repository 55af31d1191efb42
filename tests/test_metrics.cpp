#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "core/metrics.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"

namespace cnash::core {
namespace {

/// Candidate profiles as a backend would report them: SolveSamples carrying
/// their own ε-Nash verdict from verify_samples.
std::vector<SolveSample> verified(const game::BimatrixGame& g,
                                  std::vector<SolveSample> samples,
                                  double nash_eps = 1e-9) {
  verify_samples(g, nash_eps, samples);
  return samples;
}

SolveSample sample(la::Vector p, la::Vector q) {
  SolveSample s;
  s.p = std::move(p);
  s.q = std::move(q);
  return s;
}

TEST(Metrics, ClassifiesPureMixedAndErrors) {
  const auto g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  const auto samples = verified(g, {
      sample({1, 0}, {1, 0}),                          // pure NE
      sample({0, 1}, {0, 1}),                          // pure NE
      sample({2.0 / 3, 1.0 / 3}, {1.0 / 3, 2.0 / 3}),  // mixed NE
      sample({1, 0}, {0, 1}),                          // not an NE
      sample({0.5, 0.5}, {0.5, 0.5}),                  // not an NE
  });
  const auto r = tally(samples, gt);
  EXPECT_EQ(r.runs, 5u);
  EXPECT_EQ(r.pure_successes, 2u);
  EXPECT_EQ(r.mixed_successes, 1u);
  EXPECT_EQ(r.errors, 2u);
  EXPECT_DOUBLE_EQ(r.success_rate(), 0.6);
  EXPECT_DOUBLE_EQ(r.error_fraction(), 0.4);
  EXPECT_EQ(r.distinct_found(), 3u);
  EXPECT_EQ(r.target(), 3u);
}

TEST(Metrics, RepeatedSolutionsCountOnceForDistinct) {
  const auto g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  const auto r = tally(
      verified(g, std::vector<SolveSample>(10, sample({1, 0}, {1, 0}))), gt);
  EXPECT_EQ(r.pure_successes, 10u);
  EXPECT_EQ(r.distinct_found(), 1u);
}

TEST(Metrics, InvalidDistributionsAreErrors) {
  const auto g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  SolveSample off_simplex = sample({0.7, 0.7}, {1, 0});  // not a distribution
  SolveSample broken_read = sample({1, 1}, {1, 0});  // violated one-hot read
  broken_read.valid = false;
  const auto r = tally(
      verified(g, {off_simplex, broken_read, sample({}, {})}), gt);
  EXPECT_EQ(r.errors, 3u);
  EXPECT_DOUBLE_EQ(r.success_rate(), 0.0);
}

TEST(Metrics, EmptyReportSafe) {
  SolverReport r;
  EXPECT_DOUBLE_EQ(r.success_rate(), 0.0);
  EXPECT_DOUBLE_EQ(r.error_fraction(), 0.0);
  EXPECT_EQ(r.distinct_found(), 0u);
}

TEST(Metrics, SuccessNotInGroundTruthStillCountsAsSuccess) {
  // An ε-NE that matches no listed ground-truth point (e.g. truncated list):
  // counted as success but not as a distinct hit.
  const auto g = game::battle_of_sexes();
  const std::vector<game::Equilibrium> partial_gt = {{{1, 0}, {1, 0}, true}};
  const auto r = tally(verified(g, {sample({0, 1}, {0, 1})}), partial_gt);
  EXPECT_EQ(r.pure_successes, 1u);
  EXPECT_EQ(r.distinct_found(), 0u);
}

TEST(Metrics, LooseEpsilonAndMatchToleranceCountNearbyProfiles) {
  // bench_scaling and repeated_pd_tournament verify at a coarse ε and match
  // within a grid-sized tolerance. A profile 1/30 off the mixed equilibrium
  // has regret 0.07: an ε-NE at ε = 0.1 that hits the equilibrium at
  // match_tol = 0.1, but neither at the defaults.
  const auto g = game::battle_of_sexes();
  const auto gt = game::all_equilibria(g);
  const SolveSample near_mixed = sample({0.7, 0.3}, {0.3, 0.7});

  const auto strict = tally(verified(g, {near_mixed}), gt);
  EXPECT_EQ(strict.errors, 1u);
  EXPECT_EQ(strict.distinct_found(), 0u);

  const auto loose_eps = tally(verified(g, {near_mixed}, 0.1), gt);
  EXPECT_EQ(loose_eps.mixed_successes, 1u);
  EXPECT_EQ(loose_eps.distinct_found(), 0u);  // 1/30 > default match_tol

  const auto loose = tally(verified(g, {near_mixed}, 0.1), gt, 0.1);
  EXPECT_EQ(loose.mixed_successes, 1u);
  EXPECT_EQ(loose.distinct_found(), 1u);
}

TEST(Metrics, PercentFormatting) {
  EXPECT_EQ(percent(0.819, 2), "81.90");
  EXPECT_EQ(percent(1.0, 1), "100.0");
  EXPECT_EQ(percent(0.0), "0.00");
}

}  // namespace
}  // namespace cnash::core

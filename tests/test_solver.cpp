// The SA backends end to end through one SolveRequest on the shared service:
// "exact-sa" and "hardware-sa" solve the paper's small games, report valid
// distributions, and replay bit-identically for a fixed seed.

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/strategy.hpp"
#include "game/support_enum.hpp"

namespace cnash::core {
namespace {

SolveRequest sa_request(game::BimatrixGame g, const char* backend,
                        std::size_t runs, std::uint64_t seed,
                        std::size_t iterations) {
  SolveRequest req(std::move(g));
  req.backend = backend;
  req.runs = runs;
  req.intervals = 12;
  req.sa.iterations = iterations;
  req.seed = seed;
  req.nash_eps = 1e-9;
  return req;
}

std::vector<SolveSample> solve(SolveRequest req) {
  return SolverService::shared().solve(std::move(req)).samples;
}

std::size_t nash_count(const std::vector<SolveSample>& samples) {
  std::size_t n = 0;
  for (const SolveSample& s : samples)
    if (s.is_nash) ++n;
  return n;
}

TEST(Solver, ExactBackendSolvesBattleOfSexes) {
  const auto outcomes =
      solve(sa_request(game::battle_of_sexes(), "exact-sa", 30, 81, 4000));
  ASSERT_EQ(outcomes.size(), 30u);
  EXPECT_GE(nash_count(outcomes), 27u);
}

TEST(Solver, HardwareBackendSolvesBattleOfSexes) {
  const auto outcomes =
      solve(sa_request(game::battle_of_sexes(), "hardware-sa", 20, 82, 4000));
  ASSERT_EQ(outcomes.size(), 20u);
  EXPECT_GE(nash_count(outcomes), 15u);
}

TEST(Solver, FindsBothPureAndMixedSolutions) {
  const game::BimatrixGame g = game::battle_of_sexes();
  const auto report = tally(solve(sa_request(g, "exact-sa", 60, 83, 5000)),
                            game::all_equilibria(g));
  EXPECT_GT(report.pure_successes, 0u);
  EXPECT_GT(report.mixed_successes, 0u);
  EXPECT_EQ(report.target(), 3u);
  EXPECT_EQ(report.distinct_found(), 3u);  // all three BoS equilibria
}

TEST(Solver, DeterministicGivenSeed) {
  const auto oa = solve(sa_request(game::bird_game(), "exact-sa", 5, 84, 500));
  const auto ob = solve(sa_request(game::bird_game(), "exact-sa", 5, 84, 500));
  ASSERT_EQ(oa.size(), 5u);
  ASSERT_EQ(ob.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(oa[i].profile->key(), ob[i].profile->key());
}

TEST(Solver, ReportBestOptionNeverWorseThanFinal) {
  SolveRequest best_req = sa_request(game::bird_game(), "exact-sa", 10, 85, 300);
  best_req.report_best = true;
  const auto of = solve(sa_request(game::bird_game(), "exact-sa", 10, 85, 300));
  const auto ob = solve(std::move(best_req));
  ASSERT_EQ(ob.size(), of.size());
  for (std::size_t i = 0; i < of.size(); ++i)
    EXPECT_LE(ob[i].objective, of[i].objective + 1e-12);
}

TEST(Solver, OutcomeDistributionsAreValid) {
  const auto outcomes = solve(
      sa_request(game::modified_prisoners_dilemma(), "exact-sa", 5, 86, 200));
  for (const auto& o : outcomes) {
    EXPECT_TRUE(game::is_distribution(o.p));
    EXPECT_TRUE(game::is_distribution(o.q));
  }
}

}  // namespace
}  // namespace cnash::core

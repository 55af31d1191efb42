#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "game/games.hpp"
#include "game/random_games.hpp"
#include "game/strategy.hpp"
#include "game/support_enum.hpp"
#include "game/verify.hpp"
#include "util/rng.hpp"

namespace cnash::game {
namespace {

bool contains(const std::vector<Equilibrium>& eqs, const la::Vector& p,
              const la::Vector& q, double tol = 1e-6) {
  return std::any_of(eqs.begin(), eqs.end(), [&](const Equilibrium& e) {
    return e.matches(p, q, tol);
  });
}

TEST(SupportEnum, BattleOfSexesFindsAllThree) {
  const auto eqs = all_equilibria(battle_of_sexes());
  ASSERT_EQ(eqs.size(), 3u);
  EXPECT_TRUE(contains(eqs, {1, 0}, {1, 0}));
  EXPECT_TRUE(contains(eqs, {0, 1}, {0, 1}));
  EXPECT_TRUE(contains(eqs, {2.0 / 3, 1.0 / 3}, {1.0 / 3, 2.0 / 3}));
  // Exactly one is mixed.
  EXPECT_EQ(std::count_if(eqs.begin(), eqs.end(),
                          [](const Equilibrium& e) { return !e.pure; }),
            1);
}

TEST(SupportEnum, PrisonersDilemmaUnique) {
  const auto eqs = all_equilibria(prisoners_dilemma());
  ASSERT_EQ(eqs.size(), 1u);
  EXPECT_TRUE(contains(eqs, {0, 1}, {0, 1}));
  EXPECT_TRUE(eqs[0].pure);
}

TEST(SupportEnum, MatchingPenniesUniqueMixed) {
  const auto eqs = all_equilibria(matching_pennies());
  ASSERT_EQ(eqs.size(), 1u);
  EXPECT_TRUE(contains(eqs, {0.5, 0.5}, {0.5, 0.5}));
  EXPECT_FALSE(eqs[0].pure);
}

TEST(SupportEnum, RockPaperScissorsUniform) {
  const auto eqs = all_equilibria(rock_paper_scissors());
  ASSERT_EQ(eqs.size(), 1u);
  const double third = 1.0 / 3;
  EXPECT_TRUE(contains(eqs, {third, third, third}, {third, third, third}));
}

TEST(SupportEnum, ChickenHasThree) {
  const auto eqs = all_equilibria(chicken());
  EXPECT_EQ(eqs.size(), 3u);
}

TEST(SupportEnum, StagHuntHasThree) {
  const auto eqs = all_equilibria(stag_hunt());
  EXPECT_EQ(eqs.size(), 3u);
}

TEST(SupportEnum, CoordinationCountIs2PowNMinus1) {
  // Distinct-diagonal coordination: every support pair (S,S) yields one NE.
  for (std::size_t n : {2u, 3u, 4u}) {
    const auto eqs = all_equilibria(coordination(n));
    EXPECT_EQ(eqs.size(), (1u << n) - 1) << "n=" << n;
  }
}

TEST(SupportEnum, BirdGameSevenEquilibria) {
  const auto result = support_enumeration(bird_game());
  ASSERT_EQ(result.equilibria.size(), 7u);
  const auto& eqs = result.equilibria;
  EXPECT_TRUE(contains(eqs, {1, 0, 0}, {1, 0, 0}));
  EXPECT_TRUE(contains(eqs, {0, 1, 0}, {0, 1, 0}));
  EXPECT_TRUE(contains(eqs, {0, 0, 1}, {0, 0, 1}));
  EXPECT_TRUE(contains(eqs, {0.5, 0.5, 0}, {0.5, 0.5, 0}));
  EXPECT_TRUE(contains(eqs, {1.0 / 3, 0, 2.0 / 3}, {1.0 / 3, 0, 2.0 / 3}));
  EXPECT_TRUE(contains(eqs, {0, 1.0 / 3, 2.0 / 3}, {0, 1.0 / 3, 2.0 / 3}));
  EXPECT_TRUE(contains(eqs, {0.25, 0.25, 0.5}, {0.25, 0.25, 0.5}));
  // 3 pure + 4 mixed.
  EXPECT_EQ(std::count_if(eqs.begin(), eqs.end(),
                          [](const Equilibrium& e) { return e.pure; }),
            3);
}

TEST(SupportEnum, ModifiedPrisonersDilemmaThirtyOne) {
  const auto eqs = all_equilibria(modified_prisoners_dilemma());
  EXPECT_EQ(eqs.size(), 31u);
  // 5 pure (focused ventures), 26 mixed (uniform on every venture subset).
  EXPECT_EQ(std::count_if(eqs.begin(), eqs.end(),
                          [](const Equilibrium& e) { return e.pure; }),
            5);
  // Defect and spite actions never appear in any equilibrium support.
  for (const auto& e : eqs) {
    for (std::size_t a = 5; a < 8; ++a) {
      EXPECT_NEAR(e.p[a], 0.0, 1e-9);
      EXPECT_NEAR(e.q[a], 0.0, 1e-9);
    }
  }
}

TEST(SupportEnum, AllEquilibriaOnPaperGridI12) {
  // Every benchmark equilibrium must be representable at I=12 so the C-Nash
  // grid can express it exactly.
  for (const auto& inst : paper_benchmarks()) {
    for (const auto& e : all_equilibria(inst.game)) {
      EXPECT_TRUE(QuantizedStrategy::representable(e.p, inst.intervals))
          << inst.game.name();
      EXPECT_TRUE(QuantizedStrategy::representable(e.q, inst.intervals))
          << inst.game.name();
    }
  }
}

TEST(SupportEnum, EverySolutionVerifies) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const BimatrixGame g = random_game(3, 3, rng);
    for (const auto& e : all_equilibria(g))
      EXPECT_TRUE(is_nash_equilibrium(g, e.p, e.q, 1e-6));
  }
}

TEST(SupportEnum, RandomGamesHaveAtLeastOneEquilibrium) {
  // Nash's theorem: every finite game has an equilibrium; support enumeration
  // over a non-degenerate random game must find at least one.
  util::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const BimatrixGame g = random_game(2 + trial % 3, 2 + (trial / 3) % 3, rng);
    EXPECT_GE(all_equilibria(g).size(), 1u) << g.to_string();
  }
}

TEST(SupportEnum, OddNumberOfEquilibriaGenerically) {
  // Wilson's oddness theorem holds for almost all games.
  util::Rng rng(4321);
  int odd = 0, total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const BimatrixGame g = random_game(3, 3, rng);
    const auto result = support_enumeration(g);
    if (result.degenerate_flag) continue;
    ++total;
    if (result.equilibria.size() % 2 == 1) ++odd;
  }
  ASSERT_GT(total, 0);
  EXPECT_EQ(odd, total);
}

TEST(SupportEnum, ExaminesEveryEqualSizeSupportPair) {
  // The default search tries sum over k of C(n,k)·C(m,k) = C(n+m, n) − 1
  // support pairs (Vandermonde); core::kMaxSupportPairs caps requests by
  // this count, so it must be what the solver actually does.
  const auto binomial = [](std::size_t a, std::size_t k) {
    std::size_t c = 1;
    for (std::size_t i = 1; i <= k; ++i) c = c * (a - k + i) / i;
    return c;
  };
  util::Rng rng(2718);
  for (const auto& [n, m] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {2, 2}, {1, 5}, {3, 2}, {4, 4}, {3, 7}, {6, 5}}) {
    const BimatrixGame g = random_game(n, m, rng);
    EXPECT_EQ(support_enumeration(g).supports_examined,
              binomial(n + m, n) - 1)
        << n << "x" << m;
  }
  EXPECT_EQ(support_enumeration(random_game(4, 4, rng)).supports_examined,
            69u);
}

TEST(SupportEnum, MaxSupportLimitsSearch) {
  SupportEnumOptions opts;
  opts.max_support = 1;  // only pure strategy supports
  const auto result = support_enumeration(bird_game(), opts);
  EXPECT_EQ(result.equilibria.size(), 3u);
}

}  // namespace
}  // namespace cnash::game

#include <gtest/gtest.h>

#include <cmath>

#include "chip/tiled_two_phase.hpp"
#include "game/games.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cnash::core {
namespace {

using chip::TiledTwoPhaseEvaluator;

TwoPhaseConfig ideal_config() {
  TwoPhaseConfig cfg;
  cfg.array.ideal = true;
  cfg.wta.offset_sigma = 0.0;
  cfg.wta.read_noise_rel = 0.0;
  cfg.adc_bits = 16;
  cfg.adc_noise_rel = 0.0;
  return cfg;
}

game::QuantizedProfile profile_from(const la::Vector& p, const la::Vector& q,
                                    std::uint32_t intervals) {
  return {game::QuantizedStrategy::from_distribution(p, intervals),
          game::QuantizedStrategy::from_distribution(q, intervals)};
}

TEST(TwoPhase, IdealHardwareMatchesExactObjective) {
  const auto g = game::battle_of_sexes();
  TiledTwoPhaseEvaluator hw(g, 12, ideal_config(), util::Rng(61));
  ExactMaxQubo exact(g);
  util::Rng rng(62);
  for (int t = 0; t < 100; ++t) {
    game::QuantizedProfile prof{game::QuantizedStrategy::random(2, 12, rng),
                                game::QuantizedStrategy::random(2, 12, rng)};
    EXPECT_NEAR(hw.evaluate(prof), exact.evaluate(prof), 0.02);
  }
}

TEST(TwoPhase, ZeroNearEquilibriaOnIdealHardware) {
  const auto g = game::battle_of_sexes();
  TiledTwoPhaseEvaluator hw(g, 12, ideal_config(), util::Rng(63));
  EXPECT_NEAR(hw.evaluate(profile_from({1, 0}, {1, 0}, 12)), 0.0, 0.02);
  EXPECT_NEAR(hw.evaluate(profile_from({2.0 / 3, 1.0 / 3},
                                       {1.0 / 3, 2.0 / 3}, 12)),
              0.0, 0.02);
}

TEST(TwoPhase, RealisticHardwareTracksExactWithinBudget) {
  const auto g = game::bird_game();
  TwoPhaseConfig cfg;  // realistic non-idealities
  TiledTwoPhaseEvaluator hw(g, 12, cfg, util::Rng(64));
  ExactMaxQubo exact(g);
  util::Rng rng(65);
  util::RunningStats err;
  for (int t = 0; t < 200; ++t) {
    game::QuantizedProfile prof{game::QuantizedStrategy::random(3, 12, rng),
                                game::QuantizedStrategy::random(3, 12, rng)};
    err.add(hw.evaluate(prof) - exact.evaluate(prof));
  }
  // Error from variability + WTA offsets + ADC stays well under the smallest
  // payoff scale of the game (payoff range = 2).
  EXPECT_LT(std::abs(err.mean()), 0.05);
  EXPECT_LT(err.stddev(), 0.08);
}

TEST(TwoPhase, ReadoutComponentsExposed) {
  const auto g = game::battle_of_sexes();
  TiledTwoPhaseEvaluator hw(g, 12, ideal_config(), util::Rng(66));
  const auto prof = profile_from({1, 0}, {0, 1}, 12);
  const double f = hw.evaluate(prof);
  const auto& r = hw.last_readout();
  EXPECT_NEAR(f, r.max_mq + r.max_ntp - r.vmv_m - r.vmv_n, 1e-9);
}

TEST(TwoPhase, WorksWithNegativePayoffGames) {
  // Matching pennies has negative payoffs; the internal shift must make the
  // objective work unchanged.
  const auto g = game::matching_pennies();
  TiledTwoPhaseEvaluator hw(g, 8, ideal_config(), util::Rng(67));
  EXPECT_NEAR(hw.evaluate(profile_from({0.5, 0.5}, {0.5, 0.5}, 8)), 0.0, 0.02);
  EXPECT_GT(hw.evaluate(profile_from({1, 0}, {1, 0}, 8)), 0.5);
}

TEST(TwoPhase, ValueScaleHandlesFractionalPayoffs) {
  // A game with 0.5-step payoffs needs value_scale = 2 for integer coding.
  la::Matrix m{{1.5, 0}, {0, 0.5}};
  la::Matrix n{{0.5, 0}, {0, 1.5}};
  const game::BimatrixGame g(m, n, "fractional");
  TwoPhaseConfig cfg = ideal_config();
  cfg.value_scale = 2.0;
  TiledTwoPhaseEvaluator hw(g, 8, cfg, util::Rng(68));
  ExactMaxQubo exact(g);
  const auto prof = profile_from({0.5, 0.5}, {0.25, 0.75}, 8);
  EXPECT_NEAR(hw.evaluate(prof), exact.evaluate(prof), 0.02);
}

TEST(TwoPhase, ProfileShapeMismatchThrows) {
  TiledTwoPhaseEvaluator hw(game::battle_of_sexes(), 12, ideal_config(),
                            util::Rng(69));
  game::QuantizedProfile wrong{game::QuantizedStrategy(3, 12),
                               game::QuantizedStrategy(2, 12)};
  EXPECT_THROW(hw.evaluate(wrong), std::invalid_argument);
  game::QuantizedProfile wrong_i{game::QuantizedStrategy(2, 8),
                                 game::QuantizedStrategy(2, 8)};
  EXPECT_THROW(hw.evaluate(wrong_i), std::invalid_argument);
}

TEST(TwoPhase, NonIntegerPayoffsRejectedWithoutScale) {
  la::Matrix m{{0.3, 0}, {0, 1}};
  const game::BimatrixGame g(m, m, "bad");
  EXPECT_THROW(
      TiledTwoPhaseEvaluator(g, 8, ideal_config(), util::Rng(70)),
      std::invalid_argument);
}

}  // namespace
}  // namespace cnash::core

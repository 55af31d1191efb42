// Multi-level-cell (MLC) FeFET extension: value coding over fewer cells,
// backward compatibility with binary cells, and accuracy of the hardware
// objective across level counts.

#include <gtest/gtest.h>

#include "chip/tiled_two_phase.hpp"
#include "game/games.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "xbar/array.hpp"
#include "xbar/mapping.hpp"

namespace cnash {
namespace {

TEST(Mlc, CellsPerElementShrinksWithLevels) {
  const la::Matrix payoff{{9, 3}, {0, 6}};
  EXPECT_EQ(xbar::CrossbarMapping(payoff, 4, 0, 2).geometry().cells_per_element,
            9u);
  EXPECT_EQ(xbar::CrossbarMapping(payoff, 4, 0, 4).geometry().cells_per_element,
            3u);  // ceil(9/3)
  EXPECT_EQ(
      xbar::CrossbarMapping(payoff, 4, 0, 10).geometry().cells_per_element,
      1u);
  EXPECT_THROW(xbar::CrossbarMapping(payoff, 4, 2, 4), std::invalid_argument);
  EXPECT_THROW(xbar::CrossbarMapping(payoff, 4, 0, 1), std::invalid_argument);
}

TEST(Mlc, CellLevelCodingSumsToValue) {
  const la::Matrix payoff{{9}};
  const xbar::CrossbarMapping map(payoff, 2, 0, 4);  // per-cell = 3
  // 9 = 3 + 3 + 3 over ceil(9/3) = 3 cells.
  std::uint32_t total = 0;
  for (std::uint32_t k = 0; k < map.geometry().cells_per_element; ++k)
    total += map.cell_level(9, k);
  EXPECT_EQ(total, 9u);
  // Partial fill: value 7 = 3 + 3 + 1.
  EXPECT_EQ(map.cell_level(7, 0), 3u);
  EXPECT_EQ(map.cell_level(7, 1), 3u);
  EXPECT_EQ(map.cell_level(7, 2), 1u);
  EXPECT_EQ(map.cell_level(0, 0), 0u);
}

TEST(Mlc, BinaryLevelCodingMatchesLegacyUnary) {
  const la::Matrix payoff{{3, 1}, {2, 0}};
  const xbar::CrossbarMapping map(payoff, 4, 0, 2);
  for (std::uint32_t v = 0; v <= 3; ++v)
    for (std::uint32_t k = 0; k < 3; ++k)
      EXPECT_EQ(map.cell_level(v, k), k < v ? 1u : 0u);
}

TEST(Mlc, IdealMlcReadMatchesExactProduct) {
  const la::Matrix payoff{{9, 3}, {0, 6}};
  for (const std::uint32_t levels : {2u, 4u, 10u}) {
    xbar::CrossbarMapping map(payoff, 4, 0, levels);
    xbar::ArrayConfig cfg;
    cfg.ideal = true;
    util::Rng rng(7);
    const xbar::ProgrammedCrossbar xb(std::move(map), cfg, rng);
    const std::vector<std::uint32_t> rows{1, 3}, groups{2, 2};
    const double value = xb.current_to_value(xb.read_vmv(rows, groups));
    const double exact = la::vmv({0.25, 0.75}, payoff, {0.5, 0.5});
    EXPECT_NEAR(value, exact, 0.02 * exact) << "levels=" << levels;
  }
}

TEST(Mlc, UnitCurrentScalesWithLevels) {
  const la::Matrix payoff{{6}};
  xbar::ArrayConfig cfg;
  cfg.ideal = true;
  util::Rng rng(8);
  const xbar::ProgrammedCrossbar bin(xbar::CrossbarMapping(payoff, 2, 0, 2),
                                     cfg, rng);
  const xbar::ProgrammedCrossbar mlc(xbar::CrossbarMapping(payoff, 2, 0, 4),
                                     cfg, rng);
  EXPECT_NEAR(bin.unit_current(), 3.0 * mlc.unit_current(), 1e-18);
}

TEST(Mlc, IntermediateLevelsCarryExtraSpread) {
  // Compare the relative spread of a mid-level cell bundle vs a full-ON one.
  const la::Matrix mid_payoff{{1}};   // one cell at level 1 of 3 (frac 1/3)
  const la::Matrix full_payoff{{3}};  // one cell at level 3 of 3 (clamped)
  xbar::ArrayConfig cfg;  // variability on
  // Exaggerate the MLC programming spread so the effect clears the resistor
  // variability floor with 300 samples.
  cfg.variability.sigma_mlc_rel = 0.15;
  util::RunningStats mid, full;
  for (int trial = 0; trial < 300; ++trial) {
    util::Rng rng(1000 + trial);
    util::Rng rng2(1000 + trial);
    const xbar::ProgrammedCrossbar xm(
        xbar::CrossbarMapping(mid_payoff, 1, 1, 4), cfg, rng);
    const xbar::ProgrammedCrossbar xf(
        xbar::CrossbarMapping(full_payoff, 1, 1, 4), cfg, rng2);
    mid.add(xm.read_vmv({1}, {1}));
    full.add(xf.read_vmv({1}, {1}));
  }
  const double mid_rel = mid.stddev() / mid.mean();
  const double full_rel = full.stddev() / full.mean();
  EXPECT_GT(mid_rel, 1.2 * full_rel);
}

TEST(Mlc, TwoPhaseEvaluatorWorksWithMlc) {
  core::TwoPhaseConfig cfg;
  cfg.levels_per_cell = 4;
  const auto g = game::bird_game();
  chip::TiledTwoPhaseEvaluator hw(g, 12, cfg, util::Rng(9));
  core::ExactMaxQubo exact(g);
  // The MLC array must be strictly smaller than the binary one.
  core::TwoPhaseConfig bin_cfg;
  chip::TiledTwoPhaseEvaluator hw_bin(g, 12, bin_cfg, util::Rng(10));
  EXPECT_LT(hw.chip_m().mapping().geometry().total_cells(),
            hw_bin.chip_m().mapping().geometry().total_cells());
  util::Rng rng(11);
  util::RunningStats err;
  for (int t = 0; t < 100; ++t) {
    game::QuantizedProfile prof{game::QuantizedStrategy::random(3, 12, rng),
                                game::QuantizedStrategy::random(3, 12, rng)};
    err.add(hw.evaluate(prof) - exact.evaluate(prof));
  }
  EXPECT_LT(std::abs(err.mean()), 0.08);
  EXPECT_LT(err.stddev(), 0.15);
}

}  // namespace
}  // namespace cnash

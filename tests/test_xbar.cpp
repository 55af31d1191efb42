#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "xbar/adc.hpp"
#include "xbar/array.hpp"
#include "xbar/energy.hpp"
#include "xbar/mapping.hpp"
#include "xbar/parasitics.hpp"

namespace cnash::xbar {
namespace {

la::Matrix small_payoff() { return la::Matrix{{3, 0}, {1, 2}}; }

TEST(Mapping, GeometryFollowsFig4) {
  // Fig. 4(c): 0.25 x 3 x 0.75 with I = 4, t = 4 needs a 4 x 16 subarray.
  const CrossbarMapping map(la::Matrix{{3}}, 4, 4);
  EXPECT_EQ(map.geometry().total_rows(), 4u);
  EXPECT_EQ(map.geometry().total_cols(), 16u);
}

TEST(Mapping, RejectsNonIntegerAndNegative) {
  EXPECT_THROW(CrossbarMapping(la::Matrix{{1.5}}, 4), std::invalid_argument);
  EXPECT_THROW(CrossbarMapping(la::Matrix{{-1.0}}, 4), std::invalid_argument);
  EXPECT_THROW(CrossbarMapping(la::Matrix{{5}}, 4, 3), std::invalid_argument);
  // Elements are uint32: 2^32 - 1 is the largest that maps, and anything
  // above it (or NaN) is rejected before the narrowing cast.
  EXPECT_EQ(CrossbarMapping(la::Matrix{{4294967295.0}}, 4).element(0, 0),
            4294967295u);
  EXPECT_THROW(CrossbarMapping(la::Matrix{{4294967296.0}}, 4),
               std::invalid_argument);
  EXPECT_THROW(CrossbarMapping(la::Matrix{{1e12}}, 4), std::invalid_argument);
  EXPECT_THROW(CrossbarMapping(la::Matrix{{std::nan("")}}, 4),
               std::invalid_argument);
}

TEST(Mapping, DefaultCellsPerElementIsMaxEntry) {
  const CrossbarMapping map(small_payoff(), 4);
  EXPECT_EQ(map.geometry().cells_per_element, 3u);
}

TEST(Mapping, StoredBitsUnaryCode) {
  const CrossbarMapping map(small_payoff(), 2, 3);
  // Element (0,0) = 3: all three cells of every group store 1.
  EXPECT_TRUE(map.stored_bit(0, 0));
  EXPECT_TRUE(map.stored_bit(0, 2));
  // Element (0,1) = 0: nothing stored.
  for (std::size_t c = 6; c < 12; ++c) EXPECT_FALSE(map.stored_bit(0, c));
  // Element (1,0) = 1: first cell of each group only.
  EXPECT_TRUE(map.stored_bit(2, 0));
  EXPECT_FALSE(map.stored_bit(2, 1));
}

TEST(Mapping, AddressRoundTrips) {
  const CrossbarMapping map(small_payoff(), 4, 3);
  const auto ca = map.col_address(4 * 3 + 3 + 1);  // block 1, group 1, cell 1
  EXPECT_EQ(ca.j, 1u);
  EXPECT_EQ(ca.group, 1u);
  EXPECT_EQ(ca.cell, 1u);
  const auto ra = map.row_address(5);
  EXPECT_EQ(ra.i, 1u);
  EXPECT_EQ(ra.row_in_block, 1u);
}

TEST(Mapping, ConductingCellsMatchesFormula) {
  const CrossbarMapping map(small_payoff(), 4, 3);
  // rows_active = (1, 4), groups_active = (3, 2):
  // Σ r_i * g_j * m_ij = 1*3*3 + 1*2*0 + 4*3*1 + 4*2*2 = 9 + 12 + 16 = 37.
  EXPECT_EQ(map.conducting_cells({1, 4}, {3, 2}), 37u);
  EXPECT_THROW(map.conducting_cells({5, 0}, {0, 0}), std::invalid_argument);
}

TEST(Array, IdealReadMatchesExactProduct) {
  const std::uint32_t I = 4;
  CrossbarMapping map(small_payoff(), I);
  ArrayConfig cfg;
  cfg.ideal = true;
  util::Rng rng(1);
  const ProgrammedCrossbar xb(std::move(map), cfg, rng);
  // p = (0.25, 0.75), q = (0.5, 0.5).
  const std::vector<std::uint32_t> rows{1, 3}, groups{2, 2};
  const double value = xb.current_to_value(xb.read_vmv(rows, groups));
  const double exact = la::vmv({0.25, 0.75}, small_payoff(), {0.5, 0.5});
  EXPECT_NEAR(value, exact, 0.01 * exact + 1e-6);
}

TEST(Array, MvReadMatchesMatrixVector) {
  const std::uint32_t I = 4;
  CrossbarMapping map(small_payoff(), I);
  ArrayConfig cfg;
  cfg.ideal = true;
  util::Rng rng(2);
  const ProgrammedCrossbar xb(std::move(map), cfg, rng);
  const std::vector<std::uint32_t> groups{1, 3};  // q = (0.25, 0.75)
  const auto currents = xb.read_mv(groups);
  const la::Vector expected = small_payoff().multiply({0.25, 0.75});
  ASSERT_EQ(currents.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(xb.current_to_value(currents[i]), expected[i],
                0.01 * expected[i] + 1e-6);
}

TEST(Array, PrefixAndPerCellPathsAgreeExactly) {
  CrossbarMapping map(la::Matrix{{2, 1, 3}, {0, 2, 1}}, 3);
  ArrayConfig cfg;  // variability on
  util::Rng rng(3);
  const ProgrammedCrossbar xb(std::move(map), cfg, rng);
  const std::vector<std::uint32_t> rows{2, 1}, groups{1, 3, 2};
  EXPECT_NEAR(xb.read_vmv(rows, groups), xb.read_vmv_percell(rows, groups),
              1e-15);
}

TEST(Array, VariabilityPerturbsButTracksIdeal) {
  CrossbarMapping map(small_payoff(), 8);
  ArrayConfig cfg;
  util::Rng rng(4);
  const ProgrammedCrossbar xb(std::move(map), cfg, rng);
  const std::vector<std::uint32_t> rows{4, 4}, groups{4, 4};
  const double value = xb.current_to_value(xb.read_vmv(rows, groups));
  const double exact = la::vmv({0.5, 0.5}, small_payoff(), {0.5, 0.5});
  EXPECT_NEAR(value, exact, 0.05 * exact);
  EXPECT_NE(value, exact);  // variability must actually do something
}

TEST(Array, FastAndExactSamplingStatisticallyClose) {
  util::Rng rng_fast(5), rng_exact(5);
  ArrayConfig fast_cfg, exact_cfg;
  fast_cfg.fast_sampling = true;
  exact_cfg.fast_sampling = false;
  const la::Matrix payoff{{4, 2}, {1, 3}};
  const ProgrammedCrossbar fast(CrossbarMapping(payoff, 6), fast_cfg, rng_fast);
  const ProgrammedCrossbar exact(CrossbarMapping(payoff, 6), exact_cfg,
                                 rng_exact);
  const std::vector<std::uint32_t> rows{3, 3}, groups{3, 3};
  // Same seed -> same device draws; the two device models agree within ~1 %.
  EXPECT_NEAR(fast.read_vmv(rows, groups), exact.read_vmv(rows, groups),
              0.01 * exact.read_vmv(rows, groups));
}

TEST(Array, ZeroActivationZeroOnCurrent) {
  CrossbarMapping map(small_payoff(), 4);
  ArrayConfig cfg;
  cfg.ideal = true;
  util::Rng rng(6);
  const ProgrammedCrossbar xb(std::move(map), cfg, rng);
  const std::vector<std::uint32_t> none{0, 0};
  EXPECT_NEAR(xb.read_vmv(none, none), 0.0, 1e-12);
}

TEST(Array, BadActivationThrows) {
  CrossbarMapping map(small_payoff(), 4);
  ArrayConfig cfg;
  cfg.ideal = true;
  util::Rng rng(7);
  const ProgrammedCrossbar xb(std::move(map), cfg, rng);
  EXPECT_THROW(xb.read_vmv({5, 0}, {0, 0}), std::invalid_argument);
  EXPECT_THROW(xb.read_vmv({1}, {0, 0}), std::invalid_argument);
}

TEST(Adc, QuantizeReconstructWithinLsb) {
  AdcConfig cfg;
  cfg.bits = 8;
  cfg.full_scale_current = 1e-3;
  const Adc adc(cfg);
  util::Rng rng(8);
  for (double i : {1e-5, 3.3e-4, 9.9e-4}) {
    const double rec = adc.convert(i, rng);
    EXPECT_NEAR(rec, i, adc.lsb_current());
  }
}

TEST(Adc, ClampsOutOfRange) {
  const Adc adc({6, 1e-3, 0.0, 10e-9, 2e-12});
  util::Rng rng(9);
  EXPECT_EQ(adc.quantize(2e-3, rng), adc.max_code());
  EXPECT_EQ(adc.quantize(-1.0, rng), 0u);
}

TEST(Adc, MonotonicCodes) {
  const Adc adc({8, 1e-3, 0.0, 10e-9, 2e-12});
  util::Rng rng(10);
  std::uint32_t prev = 0;
  for (double i = 0.0; i <= 1e-3; i += 1e-5) {
    const auto code = adc.quantize(i, rng);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

TEST(Adc, RejectsBadConfig) {
  EXPECT_THROW(Adc({0, 1e-3, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(Adc({8, -1.0, 0, 0, 0}), std::invalid_argument);
}

TEST(Wire, DelayGrowsQuadratically) {
  const WireModel w;
  const double d64 = w.settle_time(64);
  const double d128 = w.settle_time(128);
  EXPECT_GT(d128, 2.0 * d64);  // super-linear (RC of line grows with L²)
  EXPECT_LT(d128, 4.5 * d64);
}

TEST(Wire, IrDropLinearInCurrent) {
  const WireModel w;
  EXPECT_DOUBLE_EQ(w.ir_drop(100, 2e-3), 2.0 * w.ir_drop(100, 1e-3));
}

TEST(Wire, MaxCellsForDropConsistent) {
  const WireModel w;
  const double per_cell = 1e-6;
  const std::size_t n = w.max_cells_for_drop(0.05, per_cell);
  EXPECT_LE(w.ir_drop(n, per_cell * n), 0.055);
}

TEST(Energy, BreakdownSumsAndScales) {
  const EnergyModel e;
  const auto rd = e.array_read(1e-3, 64, 256, 8);
  EXPECT_GT(rd.crossbar_j, 0.0);
  EXPECT_DOUBLE_EQ(rd.total(),
                   rd.crossbar_j + rd.lines_j + rd.adc_j + rd.wta_j + rd.logic_j);
  const auto rd2 = e.array_read(2e-3, 64, 256, 8);
  EXPECT_DOUBLE_EQ(rd2.crossbar_j, 2.0 * rd.crossbar_j);
}

TEST(Energy, WtaTreeCountsCells) {
  const EnergyModel e;
  EXPECT_DOUBLE_EQ(e.wta_tree(4), 3.0 * e.params().wta_cell_energy_j);
  EXPECT_DOUBLE_EQ(e.wta_tree(1), 0.0);
}

}  // namespace
}  // namespace cnash::xbar

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "chip/tiled_two_phase.hpp"
#include "game/game.hpp"
#include "game/strategy.hpp"
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

TEST(Array, ZeroSigmaKeepsOnCellsConducting) {
  // A zero variability sigma programs that parameter at its nominal value; it
  // must not turn the ON-current sensitivity into 0/0 and zero every ON cell.
  const std::uint32_t I = 4;
  const std::vector<std::uint32_t> full{I, I};
  const double conducting = static_cast<double>(
      CrossbarMapping(small_payoff(), I).conducting_cells(full, full));
  const std::pair<double, double> sigmas[] = {
      {0.0, 0.08}, {0.04, 0.0}, {0.0, 0.0}};
  for (const auto& [sigma_vth, sigma_r_rel] : sigmas) {
    ArrayConfig cfg;
    cfg.variability.sigma_vth = sigma_vth;
    cfg.variability.sigma_r_rel = sigma_r_rel;
    util::Rng rng(11);
    const ProgrammedCrossbar xb(CrossbarMapping(small_payoff(), I), cfg, rng);
    const double expected = conducting * xb.nominal_on_current();
    EXPECT_NEAR(xb.read_vmv(full, full), expected, 0.05 * expected)
        << "sigma_vth=" << sigma_vth << " sigma_r_rel=" << sigma_r_rel;
  }
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

// ---- Pinned programmed currents ----------------------------------------------
// Programming is a pure function of the mapping, the ArrayConfig and the
// generator. These cases pin the exact bits a fixed seed programs and the
// generator's next draw afterwards, so a faster programming path must sample
// every cell current exactly as before and consume the same draws. At odd I
// a block's I² bundles are odd, so one Box-Muller pair straddles two cell
// planes.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::string hex_list(const std::vector<std::uint64_t>& v) {
  std::ostringstream os;
  os << std::hex << "{";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i % 3 == 0 ? "\n    " : " ") << "0x" << v[i] << "ULL,";
  os << "}";
  return os.str();
}

enum class Sampling { kFast, kExactOn, kFaults };

struct PinCase {
  std::uint32_t intervals;
  std::uint32_t levels;
  Sampling sampling;
  std::vector<std::uint64_t> expected;
};

/// read_vmv at three activations, read_mv at two, then the next draw.
std::vector<std::uint64_t> program_and_read(const PinCase& c) {
  // Binary cells code 7 in t = 7 cells; 4-level cells use t = 3 cells, and
  // every non-multiple of 3 leaves one intermediate-level plane.
  const la::Matrix payoff{{7, 0, 3, 5}, {1, 6, 0, 2}, {4, 7, 2, 0}};
  ArrayConfig cfg;
  cfg.fast_sampling = c.sampling != Sampling::kExactOn;
  if (c.sampling == Sampling::kFaults) {
    cfg.stuck_off_rate = 0.05;
    cfg.stuck_on_rate = 0.02;
  }
  util::Rng rng(1000 + 10 * c.intervals + c.levels);
  const ProgrammedCrossbar xb(CrossbarMapping(payoff, c.intervals, 0, c.levels),
                              cfg, rng);
  const std::uint32_t I = c.intervals, h = I / 2;
  const std::vector<std::vector<std::uint32_t>> rows{
      {I, I, I}, {1, h, I}, {I, 0, 2}};
  const std::vector<std::vector<std::uint32_t>> groups{
      {I, I, I, I}, {I, 0, I - 1, 2}, {1, I, h, I}};
  std::vector<std::uint64_t> out;
  for (std::size_t k = 0; k < rows.size(); ++k)
    out.push_back(bits(xb.read_vmv(rows[k], groups[k])));
  for (std::size_t k = 0; k < 2; ++k)
    for (const double x : xb.read_mv(groups[k])) out.push_back(bits(x));
  out.push_back(rng());
  return out;
}

TEST(ArrayPin, ProgrammedCurrentsAndDrawsArePinned) {
  const PinCase cases[] = {
      {3, 2, Sampling::kFast,
       {0x3f3128164312b094ULL, 0x3f132ea7b50e37e8ULL, 0x3f1a7f4361057c11ULL,
        0x3f1bc68e008e1743ULL, 0x3f1088d9c870a3aeULL, 0x3f1850f1434c075dULL,
        0x3f16db301f5bac1fULL, 0x3ef10f925c140992ULL, 0x3f0439dc5c8ecab5ULL,
        0x5ca1c42efb6e90d5ULL}},
      {5, 2, Sampling::kFast,
       {0x3f477814043c23fbULL, 0x3f25bdee7f6c1882ULL, 0x3f2c23230a78f198ULL,
        0x3f331a348756b2e7ULL, 0x3f26b3551a9523a9ULL, 0x3f307c48f3d70339ULL,
        0x3f2cedb3aaa3ef5cULL, 0x3f020e607b6ac752ULL, 0x3f1c3662a898b8e4ULL,
        0xfb5c5d815c43c94eULL}},
      {7, 2, Sampling::kFast,
       {0x3f570817777cb818ULL, 0x3f33eb1aba038c1fULL, 0x3f38161de8896dd8ULL,
        0x3f42b51d70214f7eULL, 0x3f3672cbd7101477ULL, 0x3f4021ab93501677ULL,
        0x3f3b6862159cc346ULL, 0x3f0fbfbdb3cca0ecULL, 0x3f2ca25c8c91fb55ULL,
        0x56fa49d372a7b126ULL}},
      {12, 2, Sampling::kFast,
       {0x3f70ee5ded16b3afULL, 0x3f4b01a1e2fbb0f0ULL, 0x3f4f1025e3b770deULL,
        0x3f5b64ebf44b5a78ULL, 0x3f50794500a86d9cULL, 0x3f57db46bf6706a8ULL,
        0x3f534e3671adbcccULL, 0x3f238fbd18c847e2ULL, 0x3f455272b73da36cULL,
        0x913f0f9d5bbc78ULL}},
      {3, 4, Sampling::kFast,
       {0x3f16def1fe5a3d45ULL, 0x3ef903976aa4e3f0ULL, 0x3f016edb2a6ad641ULL,
        0x3f027c3f6b22d0a4ULL, 0x3ef68c276a53b814ULL, 0x3efff721b8cf9bb6ULL,
        0x3efe5ed475f73760ULL, 0x3ed6756971395ba2ULL, 0x3eea1f2c11bcb417ULL,
        0xdd18782a04314136ULL}},
      {5, 4, Sampling::kFast,
       {0x3f2f667464ed6330ULL, 0x3f0ce141b845267bULL, 0x3f12db0845512660ULL,
        0x3f1976618c320d5aULL, 0x3f0ebc98e1279a7cULL, 0x3f15f83acd14ebc5ULL,
        0x3f13561bb12eca43ULL, 0x3ee8a8a31c32052dULL, 0x3f02f03c52d8a621ULL,
        0xdac06c2dd577b43fULL}},
      {7, 4, Sampling::kFast,
       {0x3f3ecfd3a8060300ULL, 0x3f1a5b2fa2cab50bULL, 0x3f2039b0b3610e9cULL,
        0x3f2915f8f6d1b509ULL, 0x3f1da191f59fd921ULL, 0x3f25b8e55e6a6469ULL,
        0x3f22546fdf014f83ULL, 0x3ef4ea991cb1e96bULL, 0x3f12f083a5f8b9b3ULL,
        0xc4fb0c5ed23b8974ULL}},
      {12, 4, Sampling::kFast,
       {0x3f56a6a650f46ec6ULL, 0x3f3204e8549aca29ULL, 0x3f34b96672035384ULL,
        0x3f425e2be591b909ULL, 0x3f361731fe977b7eULL, 0x3f3fc70f7a16cd87ULL,
        0x3f39e45758164446ULL, 0x3f0a3cdcf0421946ULL, 0x3f2c7246f914869cULL,
        0xc798c8e7bb7d974aULL}},
      {5, 2, Sampling::kExactOn,
       {0x3f4789661b16614cULL, 0x3f25cd21fdd5b1a6ULL, 0x3f2c35d64724582dULL,
        0x3f3328ad2c2841a6ULL, 0x3f26c87cc2eb763cULL, 0x3f3085e0a88ec5d4ULL,
        0x3f2d030645e7c4edULL, 0x3f021f14f7ec914aULL, 0x3f1c4c27fc78f5f0ULL,
        0xfb5c5d815c43c94eULL}},
      {3, 2, Sampling::kFaults,
       {0x3f309cc1d24d38dbULL, 0x3f128f160c0df85aULL, 0x3f19829601581055ULL,
        0x3f19f7df16160ac2ULL, 0x3f11141a785f82c2ULL, 0x3f17670dbabf55e9ULL,
        0x3f151abb7247c2ecULL, 0x3ef45622de847f32ULL, 0x3f03e514dfba6644ULL,
        0x9783e286a71907faULL}},
  };
  for (const PinCase& c : cases) {
    const std::vector<std::uint64_t> got = program_and_read(c);
    EXPECT_EQ(got, c.expected)
        << "I=" << c.intervals << " levels=" << c.levels
        << " sampling=" << static_cast<int>(c.sampling) << "\n  got "
        << hex_list(got);
  }
}

TEST(ArrayPin, MultiTileChipCurrentsArePinned) {
  // A 5×6 game at I = 5 on 10×70 tiles: 2×2 element blocks per tile, so both
  // arrays shard over 3×3 grids programmed tile after tile from one stream.
  const la::Matrix m{{7, 2, 0, 5, 1, 3},
                     {0, 6, 4, 2, 7, 1},
                     {3, 3, 5, 0, 2, 6},
                     {1, 7, 2, 4, 0, 5},
                     {6, 0, 1, 3, 5, 2}};
  const la::Matrix n{{2, 5, 1, 0, 6, 3},
                     {4, 0, 6, 2, 1, 5},
                     {1, 3, 0, 6, 4, 2},
                     {5, 2, 4, 1, 3, 0},
                     {0, 6, 3, 5, 2, 1}};
  const std::uint32_t I = 5;
  chip::TiledTwoPhaseEvaluator ev(game::BimatrixGame(m, n), I,
                                  core::TwoPhaseConfig{},
                                  chip::ChipConfig{10, 70}, util::Rng(77));
  ASSERT_EQ(ev.chip_m().partition().num_tiles(), 9u);
  ASSERT_EQ(ev.chip_nt().partition().num_tiles(), 9u);
  const std::vector<std::uint32_t> p{1, 0, 2, 1, 1}, q{0, 2, 1, 0, 1, 1};
  std::vector<double> vmv(9);
  std::vector<std::uint64_t> got;
  ev.chip_m().read_vmv_partials(p.data(), q.data(), vmv.data());
  for (const double x : vmv) got.push_back(bits(x));
  ev.chip_nt().read_vmv_partials(q.data(), p.data(), vmv.data());
  for (const double x : vmv) got.push_back(bits(x));
  got.push_back(bits(ev.evaluate(
      {game::QuantizedStrategy(p, I), game::QuantizedStrategy(q, I)})));
  got.push_back(bits(
      ev.evaluate({game::QuantizedStrategy({0, 0, 5, 0, 0}, I),
                   game::QuantizedStrategy({1, 1, 1, 1, 1, 0}, I)})));
  const std::vector<std::uint64_t> expected{
      0x3ec9058804cebd44ULL, 0x3db0bf0e14a4f9c7ULL, 0x3ec9928c10cfdb2cULL,
      0x3ef55439c9325238ULL, 0x3ee45707d30f0036ULL, 0x3ef11b4e1bd53354ULL,
      0x3dbb66bc90deec1aULL, 0x3eaa1c01b95ee859ULL, 0x3ed71b019b090ee0ULL,
      0x3ee07ce9b67fecfeULL, 0x3eea74520c5e0b73ULL, 0x3ee2d3459e2e22b0ULL,
      0x3ea979c5a6b4317fULL, 0x3ec8feaabf6bbfd2ULL, 0x3ec36f6b90e46198ULL,
      0x3ede3b2616e5a61dULL, 0x3ee8cb441d88f23dULL, 0x3ec40d7f21b7acc1ULL,
      0x4005673333333334ULL, 0x4011c2cccccccccdULL,
  };
  EXPECT_EQ(got, expected) << "got " << hex_list(got);
}

/// FNV-1a over the bits of `values`, folded into `h`.
std::uint64_t fold_bits(std::uint64_t h, const std::vector<double>& values) {
  for (const double x : values) {
    std::uint64_t b = bits(x);
    for (int k = 0; k < 8; ++k, b >>= 8)
      h = (h ^ (b & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

/// Programs a 12×12 game (payoffs 0..7) at I = 8 on tiles of the given size
/// and returns the tile count, a digest of every tile's partial reads at
/// three activations, and the generator's next draw. Its 144 blocks give each
/// of the eight sampling lanes 18 of them. With 4-level cells every element
/// not divisible by 3 has an intermediate-level plane, so blocks consume
/// uneven draw counts.
std::vector<std::uint64_t> program_tiled_and_digest(std::uint32_t levels,
                                                    std::size_t tile_rows,
                                                    std::size_t tile_cols) {
  const la::Matrix payoff{{2, 7, 7, 7, 5, 6, 2, 1, 7, 3, 3, 6},
                          {3, 2, 7, 7, 1, 2, 7, 7, 0, 7, 0, 5},
                          {3, 1, 1, 4, 2, 0, 4, 7, 3, 4, 7, 3},
                          {0, 3, 3, 4, 4, 2, 6, 6, 4, 2, 7, 5},
                          {1, 1, 3, 3, 0, 1, 2, 0, 5, 3, 7, 1},
                          {6, 3, 7, 5, 7, 1, 3, 5, 5, 0, 7, 6},
                          {6, 4, 1, 5, 1, 7, 6, 5, 3, 0, 6, 1},
                          {4, 5, 7, 5, 1, 2, 6, 0, 0, 7, 2, 6},
                          {0, 1, 3, 1, 4, 7, 4, 2, 6, 3, 0, 7},
                          {5, 1, 3, 7, 4, 6, 3, 6, 6, 7, 3, 2},
                          {5, 1, 7, 6, 7, 6, 4, 1, 6, 7, 5, 5},
                          {3, 2, 7, 7, 4, 6, 5, 5, 7, 4, 7, 5}};
  const std::uint32_t I = 8;
  util::Rng rng(5000 + 10 * levels + tile_rows);
  const chip::TiledCrossbar chip(payoff, I, 0, levels, ArrayConfig{}, tile_rows,
                                 tile_cols, rng);
  const std::size_t tiles = chip.partition().num_tiles();
  const std::size_t grid_cols = chip.partition().grid_cols();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<std::uint32_t> p(12), q(12);
  for (std::uint32_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < 12; ++i) {
      p[i] = k == 0 ? I : (i * (k + 2)) % (I + 1);
      q[i] = k == 0 ? I : (i * (k + 4) + 1) % (I + 1);
    }
    std::vector<double> vmv(tiles), mv(grid_cols * 12);
    chip.read_vmv_partials(p.data(), q.data(), vmv.data());
    chip.read_mv_partials(q.data(), mv.data());
    h = fold_bits(fold_bits(h, vmv), mv);
  }
  return {tiles, h, rng()};
}

TEST(ArrayPin, ChipsWithManyBlocksPerSamplingLaneArePinned) {
  struct Case {
    std::uint32_t levels;
    std::size_t tile_rows, tile_cols;
    std::vector<std::uint64_t> expected;  // tiles, digest, next draw
  };
  // One tile, then 16×120 tiles: 2×2 binary blocks (8×56 cells) or 2×5
  // 4-level blocks (8×24 cells) each, so lane boundaries fall inside tiles.
  const Case cases[] = {
      {2, 96, 672, {0x1ULL, 0xdb16d70c086bedbaULL, 0x1f9c63dc230071c2ULL}},
      {2, 16, 120, {0x24ULL, 0xd4a8cd3b34426819ULL, 0x2b700197b875f091ULL}},
      {4, 96, 672, {0x1ULL, 0xc1fc6f8be47f9f5aULL, 0x9eedca7e0058363fULL}},
      {4, 16, 120, {0x12ULL, 0xc42b9bbb46e38e94ULL, 0xd9225d1ba30dcf53ULL}},
  };
  for (const Case& c : cases) {
    const std::vector<std::uint64_t> got =
        program_tiled_and_digest(c.levels, c.tile_rows, c.tile_cols);
    EXPECT_EQ(got, c.expected)
        << "levels=" << c.levels << " tiles " << c.tile_rows << "x"
        << c.tile_cols << "\n  got " << hex_list(got);
  }
}

TEST(ArrayPin, BothSidesOfTheLaneConditionsArePinned) {
  // The sampler buffers eight blocks' draws only when every lane gets a
  // block and the eight fit 2^19 draws; other arrays are drawn in order.
  // Both sides of each condition give the parent's bits: four blocks, small
  // and 2×256² cells; nine small blocks; nine blocks whose lane scratch is
  // exactly at the bound (I = 128 binary, I = 147 with 4-level cells and an
  // MLC stream) and one interval over it.
  const la::Matrix two{{2, 0}, {1, 2}};
  const la::Matrix three{{2, 0, 1}, {1, 2, 0}, {0, 1, 2}};
  struct Case {
    const la::Matrix& payoff;
    std::uint32_t intervals, levels;
    std::vector<std::uint64_t> expected;  // digest, next draw
  };
  const Case cases[] = {
      {two, 12, 2, {0x229fa9cca02efdf1ULL, 0x4b94e3497e4db496ULL}},
      {two, 256, 2, {0xd5bc31605d04ecdfULL, 0x8b3558b364d46287ULL}},
      {three, 12, 2, {0xdf366cba29c0de62ULL, 0x28c73536d9e09153ULL}},
      {three, 128, 2, {0x5f5b74fec2b3fea0ULL, 0xf5358fe12500397bULL}},
      {three, 129, 2, {0xc21dbace39689298ULL, 0x7e06e2b1e14fc47dULL}},
      {three, 147, 4, {0x10b1eb580ea6ca70ULL, 0x176e5291396f7b46ULL}},
      {three, 148, 4, {0xafefab898e9cc81bULL, 0xf1f644b8e2e7cfa1ULL}},
  };
  for (const Case& c : cases) {
    const std::uint32_t I = c.intervals;
    util::Rng rng(7000 + I + c.levels);
    const ProgrammedCrossbar xb(CrossbarMapping(c.payoff, I, 0, c.levels),
                                ArrayConfig{}, rng);
    const std::size_t n = c.payoff.rows(), m = c.payoff.cols();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t k = 0; k < 3; ++k) {
      std::vector<std::uint32_t> p(n), q(m);
      for (std::size_t i = 0; i < n; ++i)
        p[i] = k == 0 ? I : (i * 37 + k * 11) % (I + 1);
      for (std::size_t j = 0; j < m; ++j)
        q[j] = k == 0 ? I : (j * 53 + k * 29 + 1) % (I + 1);
      h = fold_bits(fold_bits(h, {xb.read_vmv(p, q)}), xb.read_mv(q));
    }
    const std::vector<std::uint64_t> got{h, rng()};
    EXPECT_EQ(got, c.expected) << "I=" << I << " levels=" << c.levels
                               << "\n  got " << hex_list(got);
  }
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

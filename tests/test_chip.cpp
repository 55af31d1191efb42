// The multi-tile chip model (src/chip/): tile-partition geometry (partial
// tiles, non-square games), tile reads vs the monolithic array, the tiled
// two-phase evaluator's per-tile incremental state, and the two acceptance
// contracts:
//   * a 1×1 tile grid of any tile size byte-reproduces the monolithic array
//     ("hardware-sa": one tile sized to the game) — identical RNG draw
//     sequence, identical SA trajectories, full non-idealities on — and both
//     reproduce values pinned from the former standalone monolithic
//     evaluator;
//   * at scale, a 128×128-action game sharded over a 32×128 grid of small
//     tiles reads, noise off, bit-identically to the one-tile chip and
//     within ADC resolution of core::ExactMaxQubo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "chip/tile_partition.hpp"
#include "chip/tiled_crossbar.hpp"
#include "chip/tiled_two_phase.hpp"
#include "core/anneal.hpp"
#include "core/maxqubo.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "util/rng.hpp"

namespace cnash::chip {
namespace {

core::TwoPhaseConfig ideal_config() {
  core::TwoPhaseConfig cfg;
  cfg.array.ideal = true;
  cfg.wta.offset_sigma = 0.0;
  cfg.wta.read_noise_rel = 0.0;
  cfg.adc_bits = 16;
  cfg.adc_noise_rel = 0.0;
  return cfg;
}

ChipConfig chip_grid(std::size_t rows, std::size_t cols) {
  ChipConfig c;
  c.tile_rows = rows;
  c.tile_cols = cols;
  return c;
}

la::Matrix random_integer_matrix(std::size_t n, std::size_t m, int hi,
                                 util::Rng& rng) {
  la::Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      a(i, j) = static_cast<double>(rng.uniform_int(0, hi));
  return a;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::vector<std::uint32_t> random_counts(std::size_t len, std::uint32_t total,
                                         util::Rng& rng) {
  std::vector<std::uint32_t> c(len, 0);
  for (std::uint32_t t = 0; t < total; ++t) ++c[rng.uniform_index(len)];
  return c;
}

// ---- TilePartition geometry -------------------------------------------------

TEST(TilePartition, DivisibleGridGeometry) {
  xbar::MappingGeometry g{/*n=*/8, /*m=*/8, /*I=*/8, /*t=*/4};
  const TilePartition part(g, /*tile_rows=*/16, /*tile_cols=*/64);
  EXPECT_EQ(part.rows_per_tile(), 2u);  // 16 / 8
  EXPECT_EQ(part.cols_per_tile(), 2u);  // 64 / 32
  EXPECT_EQ(part.grid_rows(), 4u);
  EXPECT_EQ(part.grid_cols(), 4u);
  EXPECT_EQ(part.num_tiles(), 16u);
  const TileRange r = part.range(3, 3);
  EXPECT_EQ(r.rows(), 2u);
  EXPECT_EQ(r.cols(), 2u);
}

TEST(TilePartition, PartialLastRowAndColumn) {
  // n·I = 56 and t·m·I = 5·8·4 = 160 are not divisible by the tile dims:
  // the last grid row/column holds partial tiles.
  xbar::MappingGeometry g{/*n=*/7, /*m=*/5, /*I=*/8, /*t=*/4};
  const TilePartition part(g, 16, 64);
  EXPECT_EQ(part.grid_rows(), 4u);  // ceil(7 / 2)
  EXPECT_EQ(part.grid_cols(), 3u);  // ceil(5 / 2)
  EXPECT_EQ(part.range(3, 0).rows(), 1u);  // partial row
  EXPECT_EQ(part.range(0, 2).cols(), 1u);  // partial column
  EXPECT_EQ(part.range(3, 2).rows(), 1u);
  EXPECT_EQ(part.range(3, 2).cols(), 1u);
  // Ranges tile the element matrix exactly.
  std::size_t rows = 0, cols = 0;
  for (std::size_t tr = 0; tr < part.grid_rows(); ++tr)
    rows += part.range(tr, 0).rows();
  for (std::size_t tc = 0; tc < part.grid_cols(); ++tc)
    cols += part.range(0, tc).cols();
  EXPECT_EQ(rows, g.n);
  EXPECT_EQ(cols, g.m);
  // Row/col -> tile lookups agree with the ranges.
  for (std::size_t i = 0; i < g.n; ++i) {
    const std::size_t tr = part.tile_of_row(i);
    EXPECT_GE(i, part.range(tr, 0).i0);
    EXPECT_LT(i, part.range(tr, 0).i1);
  }
}

TEST(TilePartition, RejectsTilesSmallerThanOneElementBlock) {
  xbar::MappingGeometry g{4, 4, /*I=*/12, /*t=*/7};
  EXPECT_THROW(TilePartition(g, 11, 1024), std::invalid_argument);   // rows < I
  EXPECT_THROW(TilePartition(g, 64, 83), std::invalid_argument);  // cols < I·t
  EXPECT_NO_THROW(TilePartition(g, 12, 84));  // exactly one block
}

// ---- TiledCrossbar reads vs the monolithic array ----------------------------

class TiledReadTest : public ::testing::TestWithParam<std::pair<std::size_t,
                                                               std::size_t>> {};

TEST_P(TiledReadTest, PartialsSumToMonolithicReads) {
  const auto [n, m] = GetParam();
  util::Rng rng(1234);
  const la::Matrix payoff = random_integer_matrix(n, m, 5, rng);
  const std::uint32_t intervals = 8;

  xbar::ArrayConfig cfg;
  cfg.ideal = true;  // identical per-cell currents on both sides
  util::Rng prog_a(1), prog_b(1);
  xbar::CrossbarMapping mono_map(payoff, intervals, 0, 2);
  const std::uint32_t t = mono_map.geometry().cells_per_element;
  xbar::ProgrammedCrossbar mono(std::move(mono_map), cfg, prog_a);
  // 16 physical rows = 2 element rows; one element block column per tile.
  TiledCrossbar tiled(payoff, intervals, 0, 2, cfg, 16,
                      static_cast<std::size_t>(intervals) * t, prog_b);
  ASSERT_GT(tiled.partition().num_tiles(), 1u);

  util::Rng act_rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const auto p = random_counts(n, intervals, act_rng);
    const auto q = random_counts(m, intervals, act_rng);

    // MV: summing the tile-column partials reproduces the monolithic line
    // currents (ideal cells -> same addends, different association).
    std::vector<double> partials(tiled.partition().grid_cols() * n, 0.0);
    tiled.read_mv_partials(q.data(), partials.data());
    const std::vector<double> mono_mv = mono.read_mv(q);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t tc = 0; tc < tiled.partition().grid_cols(); ++tc)
        sum += partials[tc * n + i];
      EXPECT_NEAR(sum, mono_mv[i], 1e-9 * (std::abs(mono_mv[i]) + 1e-12));
    }

    // VMV: the tile grid sums to the monolithic total.
    std::vector<double> grid(tiled.partition().num_tiles(), 0.0);
    tiled.read_vmv_partials(p.data(), q.data(), grid.data());
    double total = 0.0;
    for (const double v : grid) total += v;
    const double mono_vmv = mono.read_vmv(p, q);
    EXPECT_NEAR(total, mono_vmv, 1e-9 * (std::abs(mono_vmv) + 1e-12));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TiledReadTest,
                         ::testing::Values(std::make_pair<std::size_t,
                                                          std::size_t>(4, 4),
                                           std::make_pair<std::size_t,
                                                          std::size_t>(7, 5),
                                           std::make_pair<std::size_t,
                                                          std::size_t>(3, 9)));

TEST(TiledCrossbar, DeltaKernelsMatchFullReads) {
  util::Rng rng(555);
  const std::size_t n = 6, m = 7;
  const la::Matrix payoff = random_integer_matrix(n, m, 4, rng);
  const std::uint32_t intervals = 8;
  xbar::ArrayConfig cfg;  // realistic variability: deltas must still be exact
  util::Rng prog(42);
  TiledCrossbar tiled(payoff, intervals, 0, 2, cfg, 16, 64, prog);
  const std::size_t gc = tiled.partition().grid_cols();

  util::Rng act_rng(7);
  auto p = random_counts(n, intervals, act_rng);
  auto q = random_counts(m, intervals, act_rng);
  std::vector<double> partials(gc * n, 0.0);
  tiled.read_mv_partials(q.data(), partials.data());
  std::vector<double> grid(tiled.partition().num_tiles(), 0.0);
  tiled.read_vmv_partials(p.data(), q.data(), grid.data());

  // Move one q tick j_from -> j_to through the delta kernels...
  std::size_t j_from = 0;
  while (q[j_from] == 0) ++j_from;
  const std::size_t j_to = (j_from + 3) % m;
  double vmv_total = 0.0;
  for (const double v : grid) vmv_total += v;
  vmv_total += tiled.vmv_group_delta(j_from, q[j_from], q[j_from] - 1,
                                     p.data(), grid.data()) +
               tiled.vmv_group_delta(j_to, q[j_to], q[j_to] + 1, p.data(),
                                     grid.data());
  tiled.mv_group_delta(j_from, q[j_from], q[j_from] - 1, partials.data());
  tiled.mv_group_delta(j_to, q[j_to], q[j_to] + 1, partials.data());
  --q[j_from];
  ++q[j_to];

  // ...and compare against fresh full reads of the moved profile.
  std::vector<double> fresh_partials(gc * n, 0.0);
  tiled.read_mv_partials(q.data(), fresh_partials.data());
  for (std::size_t k = 0; k < partials.size(); ++k)
    EXPECT_NEAR(partials[k], fresh_partials[k],
                1e-9 * (std::abs(fresh_partials[k]) + 1e-15));
  std::vector<double> fresh_grid(tiled.partition().num_tiles(), 0.0);
  tiled.read_vmv_partials(p.data(), q.data(), fresh_grid.data());
  double fresh_total = 0.0;
  for (const double v : fresh_grid) fresh_total += v;
  EXPECT_NEAR(vmv_total, fresh_total, 1e-9 * (std::abs(fresh_total) + 1e-15));
  for (std::size_t k = 0; k < grid.size(); ++k)
    EXPECT_NEAR(grid[k], fresh_grid[k], 1e-9 * (std::abs(fresh_grid[k]) + 1e-15));
}

// ---- 1×1 grid byte-reproduces hardware-sa's one-tile chip -------------------

TEST(TiledTwoPhase, SingleTileByteReproducesMonolithicEvaluator) {
  // Full non-idealities ON: device variability, WTA offsets + read noise,
  // ADC quantisation + noise. A 1×1 grid has no aggregation stage, so the
  // tile size changes neither the programmed cells nor the digitisation draw
  // sequence: an oversized tile evaluates bit-identically to the one sized
  // to the game.
  const game::BimatrixGame g = game::bird_game();
  const core::TwoPhaseConfig cfg;  // realistic defaults
  TiledTwoPhaseEvaluator mono(g, 12, cfg, util::Rng(0xA5A5));
  TiledTwoPhaseEvaluator tiled(g, 12, cfg, chip_grid(1024, 4096),
                               util::Rng(0xA5A5));
  ASSERT_EQ(tiled.chip_m().partition().num_tiles(), 1u);

  util::Rng prof_rng(31);
  std::uint64_t digest = 0;
  for (int t = 0; t < 50; ++t) {
    game::QuantizedProfile prof{game::QuantizedStrategy::random(3, 12, prof_rng),
                                game::QuantizedStrategy::random(3, 12,
                                                                prof_rng)};
    const double f_mono = mono.evaluate(prof);
    const double f_tiled = tiled.evaluate(prof);
    EXPECT_EQ(f_mono, f_tiled);  // bitwise
    std::uint64_t state = digest ^ bits_of(f_mono);
    digest = util::splitmix64(state);
  }
  // The monolithic side's 50 objectives, pinned as recorded before the
  // evaluators were folded into one.
  EXPECT_EQ(digest, 0xf35a1a931daf5049ull);
}

TEST(TiledTwoPhase, SingleTileSaTrajectoryIsByteIdentical) {
  // The incremental propose/commit path (the one SA exercises) replays the
  // monolithic trajectory move for move on an oversized tile: same accepted
  // count, same final / best profiles and bitwise-identical objectives.
  const game::BimatrixGame g = game::battle_of_sexes();
  const core::TwoPhaseConfig cfg;  // realistic defaults, incremental on
  core::SaOptions sa;
  sa.iterations = 4000;

  TiledTwoPhaseEvaluator mono(g, 12, cfg, util::Rng(77));
  TiledTwoPhaseEvaluator tiled(g, 12, cfg, chip_grid(1024, 4096),
                               util::Rng(77));
  ASSERT_NE(tiled.incremental(), nullptr);

  util::Rng sa_rng_a(0xF00D), sa_rng_b(0xF00D);
  const core::SaRunResult ra = core::simulated_annealing(mono, 12, sa, sa_rng_a);
  const core::SaRunResult rb = core::simulated_annealing(tiled, 12, sa,
                                                         sa_rng_b);
  EXPECT_EQ(ra.final_objective, rb.final_objective);
  EXPECT_EQ(ra.best_objective, rb.best_objective);
  EXPECT_EQ(ra.accepted, rb.accepted);
  EXPECT_EQ(ra.final_profile.p.counts(), rb.final_profile.p.counts());
  EXPECT_EQ(ra.final_profile.q.counts(), rb.final_profile.q.counts());
  EXPECT_EQ(mono.refresh_count(), tiled.refresh_count());
  // The monolithic trajectory, pinned as recorded before the evaluators
  // were folded into one.
  EXPECT_EQ(bits_of(ra.final_objective), 0x3f92000000000040ull);
  EXPECT_EQ(bits_of(ra.best_objective), 0x3f92000000000020ull);
  EXPECT_EQ(ra.accepted, 10u);
  EXPECT_EQ(ra.final_profile.p.counts(), (std::vector<std::uint32_t>{8, 4}));
  EXPECT_EQ(ra.final_profile.q.counts(), (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(mono.refresh_count(), 0u);
}

TEST(TiledTwoPhase, HardwareSaChipIsOneTileHoldingBothArrays) {
  // "hardware-sa"'s tile is sized from the mapped geometry of both arrays,
  // so on a non-square game with unequal cells per element neither array
  // spills into a second tile.
  util::Rng game_rng(4545);
  const game::BimatrixGame wide(random_integer_matrix(3, 7, 2, game_rng),
                                random_integer_matrix(3, 7, 5, game_rng),
                                "wide");
  const game::BimatrixGame tall(random_integer_matrix(7, 3, 5, game_rng),
                                random_integer_matrix(7, 3, 2, game_rng),
                                "tall");
  for (const game::BimatrixGame* g : {&wide, &tall}) {
    const ArrayGeometry geom = mapped_geometry(*g, 8, ideal_config());
    const ChipConfig chip = single_tile_chip(geom);
    EXPECT_EQ(chip.tile_rows,
              std::max(geom.m.total_rows(), geom.nt.total_rows()));
    EXPECT_EQ(chip.tile_cols,
              std::max(geom.m.total_cols(), geom.nt.total_cols()));
    TiledTwoPhaseEvaluator ev(*g, 8, ideal_config(), util::Rng(1));
    EXPECT_EQ(ev.chip_m().partition().num_tiles(), 1u) << g->name();
    EXPECT_EQ(ev.chip_nt().partition().num_tiles(), 1u) << g->name();
    EXPECT_EQ(ev.chip_config().tile_rows, chip.tile_rows);
    EXPECT_EQ(ev.chip_config().tile_cols, chip.tile_cols);
  }
}

// ---- Multi-tile evaluation fidelity -----------------------------------------

TEST(TiledTwoPhase, MultiTileNoiseOffMatchesMonolithic) {
  // Sharding only changes fp summation order; after ADC snapping the
  // digitised objective of the multi-tile chip equals the monolithic one.
  util::Rng game_rng(2020);
  const game::BimatrixGame g(random_integer_matrix(10, 9, 4, game_rng),
                             random_integer_matrix(10, 9, 4, game_rng),
                             "multi-tile");
  const core::TwoPhaseConfig cfg = ideal_config();
  TiledTwoPhaseEvaluator mono(g, 8, cfg, util::Rng(4));
  TiledTwoPhaseEvaluator tiled(g, 8, cfg, chip_grid(16, 96), util::Rng(4));
  ASSERT_GT(tiled.chip_m().partition().num_tiles(), 4u);

  util::Rng prof_rng(88);
  for (int t = 0; t < 30; ++t) {
    game::QuantizedProfile prof{game::QuantizedStrategy::random(10, 8, prof_rng),
                                game::QuantizedStrategy::random(9, 8,
                                                                prof_rng)};
    EXPECT_EQ(mono.evaluate(prof), tiled.evaluate(prof));
  }
}

TEST(TiledTwoPhase, MultiTileIncrementalMatchesFullReadPath) {
  // Same SA seed, incremental vs full evaluation on the multi-tile chip:
  // noise off, the trajectories must agree bit-for-bit (monolithic
  // incremental contract, lifted to the tile grid).
  util::Rng game_rng(3141);
  const game::BimatrixGame g(random_integer_matrix(9, 9, 4, game_rng),
                             random_integer_matrix(9, 9, 4, game_rng),
                             "inc-vs-full");
  core::SaOptions sa;
  sa.iterations = 3000;

  auto run = [&](bool incremental) {
    core::TwoPhaseConfig cfg = ideal_config();
    cfg.incremental = incremental;
    TiledTwoPhaseEvaluator ev(g, 8, cfg, chip_grid(16, 96), util::Rng(808));
    util::Rng sa_rng(909);
    return core::simulated_annealing(ev, 8, sa, sa_rng);
  };
  const core::SaRunResult full = run(false);
  const core::SaRunResult inc = run(true);
  EXPECT_EQ(full.final_objective, inc.final_objective);
  EXPECT_EQ(full.best_objective, inc.best_objective);
  EXPECT_EQ(full.accepted, inc.accepted);
  EXPECT_EQ(full.final_profile.p.counts(), inc.final_profile.p.counts());
  EXPECT_EQ(full.final_profile.q.counts(), inc.final_profile.q.counts());
}

TEST(TiledTwoPhase, CommittedPerTileStateTracksFullReads) {
  // After thousands of committed tick moves the per-tile committed partials
  // must still agree with a fresh tile-grid read of the final profile
  // (drift bounded by the refresh mechanism).
  util::Rng game_rng(606);
  const game::BimatrixGame g(random_integer_matrix(8, 8, 4, game_rng),
                             random_integer_matrix(8, 8, 4, game_rng),
                             "drift");
  core::TwoPhaseConfig cfg;  // realistic array, noise on
  core::SaOptions sa;
  sa.iterations = 5000;
  TiledTwoPhaseEvaluator ev(g, 8, cfg, chip_grid(16, 96), util::Rng(1212));
  util::Rng sa_rng(3434);
  const core::SaRunResult res = core::simulated_annealing(ev, 8, sa, sa_rng);

  const std::size_t n = g.num_actions1();
  std::vector<double> fresh(ev.chip_m().partition().grid_cols() * n, 0.0);
  ev.chip_m().read_mv_partials(res.final_profile.q.counts().data(),
                               fresh.data());
  const auto& committed = ev.committed_mv_partials_m();
  ASSERT_EQ(committed.size(), fresh.size());
  for (std::size_t k = 0; k < fresh.size(); ++k)
    EXPECT_NEAR(committed[k], fresh[k], 1e-9 * std::abs(fresh[k]) + 1e-15);

  std::vector<double> fresh_vmv(ev.chip_m().partition().num_tiles(), 0.0);
  ev.chip_m().read_vmv_partials(res.final_profile.p.counts().data(),
                                res.final_profile.q.counts().data(),
                                fresh_vmv.data());
  const auto& committed_vmv = ev.committed_vmv_partials_m();
  ASSERT_EQ(committed_vmv.size(), fresh_vmv.size());
  for (std::size_t k = 0; k < fresh_vmv.size(); ++k)
    EXPECT_NEAR(committed_vmv[k], fresh_vmv[k],
                1e-9 * std::abs(fresh_vmv[k]) + 1e-15);
}

// ---- Scale: 128×128 actions on a 32×128 grid of small tiles ----------------

TEST(TiledTwoPhase, Chip128ActionGameOnSmallTilesMatchesOneTileChip) {
  // 128 actions, integer payoffs <= 3, I = 16: each array is a 2048×6144
  // cell logical crossbar. Sharded over 64×64-cell tiles it spans 4096
  // tiles, so every Phase-1 line current sums 128 tile partials and every
  // Phase-2 total sums 4096. Noise off, the H-tree only reorders the
  // floating-point sums, which the ADC snaps away: the objective matches
  // the one-tile chip bit for bit and the exact objective to within ADC
  // resolution.
  util::Rng game_rng(0xBEEF);
  const game::BimatrixGame g =
      game::random_integer_game(128, 128, game_rng, 0, 3);
  const std::uint32_t intervals = 16;
  const core::TwoPhaseConfig cfg = ideal_config();

  TiledTwoPhaseEvaluator one_tile(g, intervals, cfg, util::Rng(1));
  TiledTwoPhaseEvaluator tiled(g, intervals, cfg, chip_grid(64, 64),
                               util::Rng(1));
  ASSERT_EQ(one_tile.chip_m().partition().num_tiles(), 1u);
  // 64×64-cell tiles: 4 element rows × 1 element column each.
  EXPECT_EQ(tiled.chip_m().partition().grid_rows(), 32u);
  EXPECT_EQ(tiled.chip_m().partition().grid_cols(), 128u);
  core::ExactMaxQubo exact(g);

  util::Rng prof_rng(2);
  for (int t = 0; t < 10; ++t) {
    game::QuantizedProfile prof{
        game::QuantizedStrategy::random(128, intervals, prof_rng),
        game::QuantizedStrategy::random(128, intervals, prof_rng)};
    const double f = tiled.evaluate(prof);
    EXPECT_EQ(bits_of(f), bits_of(one_tile.evaluate(prof))) << "profile " << t;
    EXPECT_NEAR(f, exact.evaluate(prof), 0.02) << "profile " << t;
  }
}

}  // namespace
}  // namespace cnash::chip

#include "chip/tiled_crossbar.hpp"

#include <algorithm>
#include <stdexcept>

namespace cnash::chip {

TiledCrossbar::TiledCrossbar(const la::Matrix& payoff, std::uint32_t intervals,
                             std::uint32_t cells_per_element,
                             std::uint32_t levels_per_cell,
                             const xbar::ArrayConfig& config,
                             std::size_t tile_rows, std::size_t tile_cols,
                             util::Rng& rng, const util::FaultPlan* fault,
                             std::uint64_t fault_scope)
    : global_(payoff, intervals, cells_per_element, levels_per_cell),
      part_(global_.geometry(), tile_rows, tile_cols) {
  const auto& g = global_.geometry();
  for (std::size_t i = 0; i < g.n; ++i)
    for (std::size_t j = 0; j < g.m; ++j)
      max_element_ = std::max(max_element_, global_.element(i, j));

  // Program the grid row-major; every tile maps its element sub-range with
  // the GLOBAL cells-per-element so block geometry is uniform across tiles
  // (and a 1×1 grid is byte-for-byte the monolithic array). The device
  // calibration depends on the config alone, so all tiles share one.
  const xbar::CellCalibration calibration(config);
  tiles_.reserve(part_.num_tiles());
  ranges_.reserve(part_.num_tiles());
  for (std::size_t tr = 0; tr < part_.grid_rows(); ++tr) {
    for (std::size_t tc = 0; tc < part_.grid_cols(); ++tc) {
      const TileRange r = part_.range(tr, tc);
      ranges_.push_back(r);
      la::Matrix sub(r.rows(), r.cols());
      for (std::size_t i = r.i0; i < r.i1; ++i)
        for (std::size_t j = r.j0; j < r.j1; ++j)
          sub(i - r.i0, j - r.j0) = payoff(i, j);
      xbar::CrossbarMapping map(sub, intervals, g.cells_per_element,
                                levels_per_cell);
      tiles_.emplace_back(std::move(map), config, calibration, rng);
    }
  }

  // Inject dead tiles AFTER programming: every tile consumed its full device
  // draw sequence above, so killing one never shifts another tile's streams
  // (or any stream when the plan is disabled).
  if (fault && fault->tile_failure_rate > 0.0) {
    dead_.assign(part_.num_tiles(), 0);
    for (std::size_t t = 0; t < part_.num_tiles(); ++t)
      if (fault->roll(util::FaultPlan::Scope::kTile, fault_scope + t,
                      fault->tile_failure_rate))
        dead_[t] = 1;
  }
  read_back_check();
}

void TiledCrossbar::read_back_check() {
  // Program-time health verification: one full-activation MV read per tile,
  // compared against the ideal conducting-unit expectation derived from the
  // logical mapping. Healthy tiles sit
  // near nominal (programming variability is zero-mean and per-cell stuck
  // faults are sparse); a dead tile reads zero, so a half-nominal threshold
  // separates the two without flagging ordinary device variation. No RNG is
  // drawn — reads on programmed conductances are deterministic.
  const double unit = unit_current();
  const std::int64_t intervals = global_.geometry().intervals;
  std::vector<std::uint32_t> full;
  std::vector<double> row_currents;
  for (std::size_t tr = 0; tr < part_.grid_rows(); ++tr) {
    for (std::size_t tc = 0; tc < part_.grid_cols(); ++tc) {
      const TileRange r = part_.range(tr, tc);
      std::int64_t expected_units = 0;
      for (std::size_t i = r.i0; i < r.i1; ++i)
        for (std::size_t j = r.j0; j < r.j1; ++j)
          expected_units += global_.element(i, j);
      // Full activation: all I word lines and all I group lines of every
      // block, so block (i,j) contributes I² · element(i,j) units.
      expected_units *= intervals * intervals;
      if (expected_units == 0) continue;  // an all-zero tile has no signature

      double measured = 0.0;
      if (!tile_dead(tr, tc)) {
        full.assign(r.cols(), static_cast<std::uint32_t>(intervals));
        row_currents.assign(r.rows(), 0.0);
        tile(tr, tc).read_mv_into(full.data(), row_currents.data());
        for (const double c : row_currents) measured += c;
      }
      const double expected = static_cast<double>(expected_units) * unit;
      if (measured < 0.5 * expected)
        failed_.push_back(tr * part_.grid_cols() + tc);
    }
  }
}

void TiledCrossbar::read_mv_partials(const std::uint32_t* groups_active,
                                     double* partials) const {
  const std::size_t rows = n();
  for (std::size_t tc = 0; tc < part_.grid_cols(); ++tc) {
    double* col = partials + tc * rows;
    for (std::size_t tr = 0; tr < part_.grid_rows(); ++tr) {
      const TileRange r = part_.range(tr, tc);
      if (tile_dead(tr, tc)) {
        std::fill(col + r.i0, col + r.i1, 0.0);
        continue;
      }
      tile(tr, tc).read_mv_into(groups_active + r.j0, col + r.i0);
    }
  }
}

void TiledCrossbar::mv_group_delta(std::size_t j, std::uint32_t g_old,
                                   std::uint32_t g_new, double* total) const {
  // Tile column tile_of_col(j), top to bottom: grid row-major stride.
  const std::size_t gc = part_.grid_cols();
  for (std::size_t t = part_.tile_of_col(j); t < tiles_.size(); t += gc) {
    if (dead_at(t)) continue;
    const TileRange& r = ranges_[t];
    tiles_[t].mv_group_delta(j - r.j0, g_old, g_new, total + r.i0);
  }
}

void TiledCrossbar::read_vmv_partials(const std::uint32_t* rows_active,
                                      const std::uint32_t* groups_active,
                                      double* vmv) const {
  for (std::size_t tr = 0; tr < part_.grid_rows(); ++tr)
    for (std::size_t tc = 0; tc < part_.grid_cols(); ++tc) {
      if (tile_dead(tr, tc)) {
        vmv[tr * part_.grid_cols() + tc] = 0.0;
        continue;
      }
      const TileRange r = part_.range(tr, tc);
      vmv[tr * part_.grid_cols() + tc] =
          tile(tr, tc).read_vmv(rows_active + r.i0, groups_active + r.j0);
    }
}

double TiledCrossbar::vmv_row_delta(std::size_t i, std::uint32_t r_old,
                                    std::uint32_t r_new,
                                    const std::uint32_t* groups_active) const {
  // Tile row tile_of_row(i), left to right.
  const std::size_t first = part_.tile_of_row(i) * part_.grid_cols();
  double total = 0.0;
  for (std::size_t t = first; t < first + part_.grid_cols(); ++t) {
    if (dead_at(t)) continue;
    const TileRange& r = ranges_[t];
    total +=
        tiles_[t].vmv_row_delta(i - r.i0, r_old, r_new, groups_active + r.j0);
  }
  return total;
}

double TiledCrossbar::vmv_group_delta(std::size_t j, std::uint32_t g_old,
                                      std::uint32_t g_new,
                                      const std::uint32_t* rows_active) const {
  const std::size_t gc = part_.grid_cols();
  double total = 0.0;
  for (std::size_t t = part_.tile_of_col(j); t < tiles_.size(); t += gc) {
    if (dead_at(t)) continue;
    const TileRange& r = ranges_[t];
    total += tiles_[t].vmv_group_delta(j - r.j0, g_old, g_new,
                                       rows_active + r.i0);
  }
  return total;
}

}  // namespace cnash::chip

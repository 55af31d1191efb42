#pragma once
// chip::TiledCrossbar — one logical crossbar sharded over a grid of
// fixed-capacity physical tiles.
//
// Each tile is an independent xbar::ProgrammedCrossbar programmed from a
// contiguous element-block range of the logical mapping, with its own
// one-time-sampled device variability and faults (tiles are programmed in
// grid row-major order from one RNG, so a 1×1 grid consumes exactly the
// draw sequence of the monolithic array). Reads are tile-local and returned
// as partials:
//
//   * Phase-1 MV reads produce, per tile COLUMN, the partial source-line
//     currents of all n logical rows (each tile contributes its own row
//     range); the H-tree adder stage upstream sums the grid_cols partials
//     per row.
//   * Phase-2 VMV reads produce one partial total per tile; the H-tree sums
//     the whole grid.
//
// Delta kernels route a single activation tick to the affected tile row /
// column only and apply it to the H-tree outputs (the aggregated line
// currents, the grid total): a column-group tick touches one tile column
// (O(n) work over its row slices), a word-line tick touches one tile row
// (O(m) work over its column slices) — the same asymptotics as the
// monolithic kernels, with the work confined to 1/grid of the cell tables.
//
// All activation inputs are GLOBAL count vectors; tiles slice them in place
// via the raw-pointer crossbar kernels (no per-call copies).

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "chip/tile_partition.hpp"
#include "la/matrix.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "xbar/array.hpp"
#include "xbar/mapping.hpp"

namespace cnash::chip {

/// A chip declared unhealthy at program time: the post-programming read-back
/// found at least one dead tile. Thrown from evaluator construction so the
/// "resilient" backend can retry the unit on the exact software path.
class ChipFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class TiledCrossbar {
 public:
  /// `payoff` must be a non-negative integer matrix (same contract as
  /// CrossbarMapping). `cells_per_element` 0 derives t from the max element;
  /// every tile is forced to the global t so block geometry is uniform.
  ///
  /// `fault` (optional) injects dead tiles at program time: tile t (grid
  /// row-major) is killed when fault->roll(kTile, fault_scope + t) fires. A
  /// dead tile drives zero current on every analog read. The constructor
  /// always runs a full-activation read-back per tile afterwards, comparing
  /// the measured response to the ideal conducting-unit expectation from the
  /// logical mapping: tiles responding below half nominal land in
  /// failed_tiles(). The read-back draws no RNG, so a null/disabled plan
  /// leaves the programmed array byte-identical to one built without it.
  TiledCrossbar(const la::Matrix& payoff, std::uint32_t intervals,
                std::uint32_t cells_per_element, std::uint32_t levels_per_cell,
                const xbar::ArrayConfig& config, std::size_t tile_rows,
                std::size_t tile_cols, util::Rng& rng,
                const util::FaultPlan* fault = nullptr,
                std::uint64_t fault_scope = 0);

  /// Grid row-major indices of tiles whose program-time read-back failed.
  const std::vector<std::size_t>& failed_tiles() const { return failed_; }
  bool tile_dead(std::size_t tr, std::size_t tc) const {
    return dead_at(tr * part_.grid_cols() + tc);
  }

  /// The logical (whole-matrix) mapping.
  const xbar::CrossbarMapping& mapping() const { return global_; }
  const TilePartition& partition() const { return part_; }
  const xbar::ProgrammedCrossbar& tile(std::size_t tr, std::size_t tc) const {
    return tiles_.at(tr * part_.grid_cols() + tc);
  }

  std::size_t n() const { return global_.geometry().n; }
  std::size_t m() const { return global_.geometry().m; }

  // ---- Analog tile reads ----------------------------------------------------

  /// Per-tile-column partial MV read (all word lines active):
  /// partials[tc * n + i] = row i's current contributed by tile column tc.
  /// `groups_active[0..m)` are the global column-group counts.
  void read_mv_partials(const std::uint32_t* groups_active,
                        double* partials) const;

  /// Routes a column-group tick (j: g_old -> g_new) to tile column
  /// tile_of_col(j): adds the per-row current deltas into the AGGREGATED
  /// line-current vector `total[0..n)` (the H-tree output). O(n).
  void mv_group_delta(std::size_t j, std::uint32_t g_old, std::uint32_t g_new,
                      double* total) const;

  /// Per-tile partial VMV read: vmv[tr * grid_cols + tc].
  void read_vmv_partials(const std::uint32_t* rows_active,
                         const std::uint32_t* groups_active,
                         double* vmv) const;

  /// VMV change of a word-line tick (row i: r_old -> r_new) under the global
  /// `groups_active`, summed over tile row tile_of_row(i), the only one it
  /// touches. O(m).
  double vmv_row_delta(std::size_t i, std::uint32_t r_old, std::uint32_t r_new,
                       const std::uint32_t* groups_active) const;

  /// VMV change of a column-group tick under the global `rows_active`;
  /// touches tile column tile_of_col(j) only. O(n).
  double vmv_group_delta(std::size_t j, std::uint32_t g_old,
                         std::uint32_t g_new,
                         const std::uint32_t* rows_active) const;

  // ---- Shared conversions ---------------------------------------------------

  double nominal_on_current() const { return tiles_.front().nominal_on_current(); }
  double unit_current() const { return tiles_.front().unit_current(); }
  double current_to_value(double current) const {
    return tiles_.front().current_to_value(current);
  }
  std::uint32_t max_element() const { return max_element_; }

 private:
  void read_back_check();
  bool dead_at(std::size_t t) const { return !dead_.empty() && dead_[t] != 0; }

  xbar::CrossbarMapping global_;
  TilePartition part_;
  std::vector<xbar::ProgrammedCrossbar> tiles_;  // grid row-major
  std::vector<TileRange> ranges_;                // tiles_' element ranges
  std::uint32_t max_element_ = 0;
  std::vector<std::uint8_t> dead_;     // empty when no faults were injected
  std::vector<std::size_t> failed_;    // read-back failures, grid row-major
};

}  // namespace cnash::chip

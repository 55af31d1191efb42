#pragma once
// The bi-crossbar mapping of Fig. 4.
//
// A payoff matrix M (n×m, non-negative integers <= t) is stored in an
// (I·n) × (I·t·m) array of 1FeFET1R cells:
//   * element block (i, j) is an I × (I·t) subarray;
//   * within a block, columns form I groups of t cells; m_ij of the t cells in
//     every group store '1' (unary value coding);
//   * strategy input p_i activates round(p_i · I) word lines of block-row i;
//   * strategy input q_j activates round(q_j · I) column groups of block j.
// The summed block current is then ∝ p_i · m_ij · q_j (Fig. 4(c) example:
// 0.25 × 3 × 0.75 with I = 4, t = 4 activates 1 row and 8 of 12 stored
// columns). Source lines sum along block-rows, so per-block-row readout gives
// the matrix-vector product Mq and full-array readout gives pᵀMq.

#include <cstdint>
#include <vector>

#include "la/matrix.hpp"

namespace cnash::xbar {

struct MappingGeometry {
  std::size_t n;        // matrix rows (player-1 actions)
  std::size_t m;        // matrix cols (player-2 actions)
  std::uint32_t intervals;  // I
  std::uint32_t cells_per_element;  // t
  /// Conductance levels per cell: 2 = binary (the paper's 1-bit cells);
  /// > 2 models the multi-level-cell FeFETs of ref. [29], which shrink t to
  /// ceil(max_element / (levels-1)) cells per element.
  std::uint32_t levels_per_cell = 2;

  std::size_t total_rows() const { return n * intervals; }
  std::size_t total_cols() const {
    return m * static_cast<std::size_t>(intervals) * cells_per_element;
  }
  std::size_t total_cells() const { return total_rows() * total_cols(); }
};

/// Integer-coded payoff matrix ready for programming. Validates that all
/// entries are non-negative integers not exceeding t.
class CrossbarMapping {
 public:
  /// `payoff` must contain non-negative integers. With binary cells
  /// (levels_per_cell = 2) t defaults to the maximum element; with
  /// multi-level cells t = ceil(max_element / (levels_per_cell - 1)). An
  /// explicit `cells_per_element` must be large enough to code the maximum.
  CrossbarMapping(const la::Matrix& payoff, std::uint32_t intervals,
                  std::uint32_t cells_per_element = 0,
                  std::uint32_t levels_per_cell = 2);

  const MappingGeometry& geometry() const { return geom_; }
  std::uint32_t element(std::size_t i, std::size_t j) const;

  /// Stored bit of the physical cell at (row, col) in array coordinates
  /// (true when the cell conducts at all, i.e. level > 0).
  bool stored_bit(std::size_t row, std::size_t col) const;

  /// Programmed conductance level of cell k within an element of the given
  /// value: the value is coded base-(levels-1), greedily filling cells.
  std::uint32_t cell_level(std::uint32_t element_value, std::uint32_t k) const;

  /// Decompose a physical column into (element col j, group g, cell k).
  struct ColAddress {
    std::size_t j;
    std::uint32_t group;
    std::uint32_t cell;
  };
  ColAddress col_address(std::size_t col) const;

  /// Decompose a physical row into (element row i, row-in-block r).
  struct RowAddress {
    std::size_t i;
    std::uint32_t row_in_block;
  };
  RowAddress row_address(std::size_t row) const;

  /// Number of conducting ('1'·active) cells for an activation pattern:
  /// rows_active[i] word lines in block-row i, groups_active[j] column groups
  /// in block j. Exact combinatorial count (ideal current / nominal i_on).
  std::uint64_t conducting_cells(const std::vector<std::uint32_t>& rows_active,
                                 const std::vector<std::uint32_t>& groups_active)
      const;

 private:
  MappingGeometry geom_;
  std::vector<std::uint32_t> elements_;  // row-major n×m integer payoffs
};

/// Round-to-nearest integer payoff check: returns the integer matrix when all
/// entries of `payoff` are (within tol) integers in [0, 2^32 - 1], else
/// throws std::invalid_argument.
la::Matrix require_integer_matrix(const la::Matrix& payoff, double tol = 1e-9);

}  // namespace cnash::xbar

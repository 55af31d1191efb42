#include "xbar/mapping.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace cnash::xbar {

la::Matrix require_integer_matrix(const la::Matrix& payoff, double tol) {
  // Elements are stored as uint32: a larger value must be rejected before
  // the cast, which would otherwise be undefined behaviour.
  constexpr double kMaxElement = std::numeric_limits<std::uint32_t>::max();
  la::Matrix out(payoff.rows(), payoff.cols());
  for (std::size_t r = 0; r < payoff.rows(); ++r)
    for (std::size_t c = 0; c < payoff.cols(); ++c) {
      const double v = payoff(r, c);
      const double rounded = std::round(v);
      if (std::isnan(v) || std::abs(v - rounded) > tol || rounded < 0.0)
        throw std::invalid_argument(
            "crossbar mapping requires non-negative integer payoffs");
      if (rounded > kMaxElement)
        throw std::invalid_argument(
            "crossbar mapping requires payoffs <= 2^32 - 1");
      out(r, c) = rounded;
    }
  return out;
}

CrossbarMapping::CrossbarMapping(const la::Matrix& payoff,
                                 std::uint32_t intervals,
                                 std::uint32_t cells_per_element,
                                 std::uint32_t levels_per_cell) {
  if (intervals == 0) throw std::invalid_argument("CrossbarMapping: I == 0");
  if (levels_per_cell < 2)
    throw std::invalid_argument("CrossbarMapping: need >= 2 levels per cell");
  const la::Matrix ints = require_integer_matrix(payoff);
  geom_.n = ints.rows();
  geom_.m = ints.cols();
  geom_.intervals = intervals;
  geom_.levels_per_cell = levels_per_cell;
  std::uint32_t max_el = 0;
  elements_.resize(geom_.n * geom_.m);
  for (std::size_t r = 0; r < geom_.n; ++r)
    for (std::size_t c = 0; c < geom_.m; ++c) {
      const auto v = static_cast<std::uint32_t>(ints(r, c));
      elements_[r * geom_.m + c] = v;
      max_el = std::max(max_el, v);
    }
  const std::uint32_t per_cell = levels_per_cell - 1;
  const std::uint32_t needed = (std::max(max_el, 1u) + per_cell - 1) / per_cell;
  if (cells_per_element == 0) cells_per_element = needed;
  if (cells_per_element * per_cell < max_el)
    throw std::invalid_argument(
        "CrossbarMapping: t*(levels-1) smaller than max element");
  geom_.cells_per_element = cells_per_element;
}

std::uint32_t CrossbarMapping::element(std::size_t i, std::size_t j) const {
  if (i >= geom_.n || j >= geom_.m)
    throw std::out_of_range("CrossbarMapping::element");
  return elements_[i * geom_.m + j];
}

CrossbarMapping::ColAddress CrossbarMapping::col_address(std::size_t col) const {
  if (col >= geom_.total_cols()) throw std::out_of_range("col_address");
  const std::size_t block_width =
      static_cast<std::size_t>(geom_.intervals) * geom_.cells_per_element;
  ColAddress a;
  a.j = col / block_width;
  const std::size_t within = col % block_width;
  a.group = static_cast<std::uint32_t>(within / geom_.cells_per_element);
  a.cell = static_cast<std::uint32_t>(within % geom_.cells_per_element);
  return a;
}

CrossbarMapping::RowAddress CrossbarMapping::row_address(std::size_t row) const {
  if (row >= geom_.total_rows()) throw std::out_of_range("row_address");
  RowAddress a;
  a.i = row / geom_.intervals;
  a.row_in_block = static_cast<std::uint32_t>(row % geom_.intervals);
  return a;
}

std::uint32_t CrossbarMapping::cell_level(std::uint32_t element_value,
                                          std::uint32_t k) const {
  const std::uint32_t per_cell = geom_.levels_per_cell - 1;
  const std::uint64_t consumed = static_cast<std::uint64_t>(k) * per_cell;
  if (consumed >= element_value) return 0;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(element_value - consumed, per_cell));
}

bool CrossbarMapping::stored_bit(std::size_t row, std::size_t col) const {
  const ColAddress a = col_address(col);
  const RowAddress r = row_address(row);
  return cell_level(element(r.i, a.j), a.cell) > 0;
}

std::uint64_t CrossbarMapping::conducting_cells(
    const std::vector<std::uint32_t>& rows_active,
    const std::vector<std::uint32_t>& groups_active) const {
  if (rows_active.size() != geom_.n || groups_active.size() != geom_.m)
    throw std::invalid_argument("conducting_cells: activation size mismatch");
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < geom_.n; ++i) {
    if (rows_active[i] > geom_.intervals)
      throw std::invalid_argument("conducting_cells: rows_active > I");
    for (std::size_t j = 0; j < geom_.m; ++j) {
      if (groups_active[j] > geom_.intervals)
        throw std::invalid_argument("conducting_cells: groups_active > I");
      total += static_cast<std::uint64_t>(rows_active[i]) * groups_active[j] *
               element(i, j);
    }
  }
  return total;
}

}  // namespace cnash::xbar

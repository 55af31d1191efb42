#include "chip/tile_partition.hpp"

#include <stdexcept>
#include <string>

namespace cnash::chip {

TilePartition::TilePartition(const xbar::MappingGeometry& geom,
                             std::size_t tile_rows, std::size_t tile_cols)
    : geom_(geom), tile_rows_(tile_rows), tile_cols_(tile_cols) {
  const std::size_t block_rows = geom.intervals;
  const std::size_t block_cols =
      static_cast<std::size_t>(geom.intervals) * geom.cells_per_element;
  if (tile_rows_ < block_rows || tile_cols_ < block_cols)
    throw std::invalid_argument(
        "TilePartition: tile (" + std::to_string(tile_rows_) + "x" +
        std::to_string(tile_cols_) + ") smaller than one element block (" +
        std::to_string(block_rows) + "x" + std::to_string(block_cols) + ")");
  if (geom.n == 0 || geom.m == 0)
    throw std::invalid_argument("TilePartition: empty mapping");
  rows_per_tile_ = tile_rows_ / block_rows;
  cols_per_tile_ = tile_cols_ / block_cols;
  grid_rows_ = (geom.n + rows_per_tile_ - 1) / rows_per_tile_;
  grid_cols_ = (geom.m + cols_per_tile_ - 1) / cols_per_tile_;
  row_tile_.resize(geom.n);
  for (std::size_t i = 0; i < geom.n; ++i) row_tile_[i] = i / rows_per_tile_;
  col_tile_.resize(geom.m);
  for (std::size_t j = 0; j < geom.m; ++j) col_tile_[j] = j / cols_per_tile_;
}

TileRange TilePartition::range(std::size_t tr, std::size_t tc) const {
  if (tr >= grid_rows_ || tc >= grid_cols_)
    throw std::out_of_range("TilePartition::range");
  TileRange r;
  r.i0 = tr * rows_per_tile_;
  r.i1 = std::min(r.i0 + rows_per_tile_, geom_.n);
  r.j0 = tc * cols_per_tile_;
  r.j1 = std::min(r.j0 + cols_per_tile_, geom_.m);
  return r;
}

}  // namespace cnash::chip

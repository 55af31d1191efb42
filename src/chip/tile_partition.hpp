#pragma once
// Geometry of the tile grid: how the element blocks of one CrossbarMapping
// are distributed over fixed-capacity physical tiles.
//
// Tiles are cut at element-block granularity — an I×(I·t) block is the
// smallest unit the unary value coding can address, so a tile holds
// floor(tile_rows / I) block rows and floor(tile_cols / (I·t)) block
// columns. The last grid row/column holds the remainder blocks when the
// matrix does not divide evenly (partial tiles); physically those tiles are
// the same fixed-size arrays with unused lines.

#include <cstddef>
#include <vector>

#include "xbar/mapping.hpp"

namespace cnash::chip {

struct TileRange {
  std::size_t i0, i1;  // element rows [i0, i1)
  std::size_t j0, j1;  // element cols [j0, j1)
  std::size_t rows() const { return i1 - i0; }
  std::size_t cols() const { return j1 - j0; }
};

class TilePartition {
 public:
  /// Throws std::invalid_argument when a tile cannot hold even one element
  /// block of the given geometry.
  TilePartition(const xbar::MappingGeometry& geom, std::size_t tile_rows,
                std::size_t tile_cols);

  const xbar::MappingGeometry& geometry() const { return geom_; }
  std::size_t tile_phys_rows() const { return tile_rows_; }
  std::size_t tile_phys_cols() const { return tile_cols_; }

  /// Element block rows / columns a full tile holds.
  std::size_t rows_per_tile() const { return rows_per_tile_; }
  std::size_t cols_per_tile() const { return cols_per_tile_; }

  std::size_t grid_rows() const { return grid_rows_; }
  std::size_t grid_cols() const { return grid_cols_; }
  std::size_t num_tiles() const { return grid_rows_ * grid_cols_; }

  /// Grid coordinates of the tile holding element row i / column j.
  std::size_t tile_of_row(std::size_t i) const { return row_tile_[i]; }
  std::size_t tile_of_col(std::size_t j) const { return col_tile_[j]; }

  /// Element ranges of tile (tr, tc); the last row/column may be partial.
  TileRange range(std::size_t tr, std::size_t tc) const;

 private:
  xbar::MappingGeometry geom_;
  std::size_t tile_rows_, tile_cols_;
  std::size_t rows_per_tile_, cols_per_tile_;
  std::size_t grid_rows_, grid_cols_;
  // Element row / column -> grid index, tabulated: every SA tick move routes
  // through these, and a table lookup is cheaper than a division.
  std::vector<std::size_t> row_tile_, col_tile_;
};

}  // namespace cnash::chip

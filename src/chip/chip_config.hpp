#pragma once
// Configuration of the multi-tile chip model: a large logical bi-crossbar is
// sharded across a grid of fixed-capacity physical crossbar tiles, with the
// per-tile outputs merged by an analog H-tree adder stage before the WTA /
// ADC periphery. This is how real CIM macros scale past a single array's
// word/bit-line budget: many small arrays (short lines, bounded parasitics,
// bounded programming time) plus a current-summing aggregation tree.

#include <cstddef>

namespace cnash::chip {

struct ChipConfig {
  /// Physical word lines per tile. A tile must hold at least one element
  /// block row, i.e. tile_rows >= I.
  std::size_t tile_rows = 64;
  /// Physical bit/data lines per tile. A tile must hold at least one element
  /// block column, i.e. tile_cols >= I * cells_per_element.
  std::size_t tile_cols = 1024;
};

}  // namespace cnash::chip

#pragma once
// Knobs of the two-phase hardware evaluation (Fig. 6): the crossbar array,
// WTA, ADC and value-coding parameters every "hardware-sa" /
// "hardware-sa-tiled" evaluator is programmed with. The evaluator itself is
// chip::TiledTwoPhaseEvaluator (chip/tiled_two_phase.hpp).

#include <cstdint>

#include "wta/wta_tree.hpp"
#include "xbar/array.hpp"

namespace cnash::core {

struct TwoPhaseConfig {
  xbar::ArrayConfig array;
  wta::WtaCellParams wta;
  unsigned adc_bits = 10;
  double adc_noise_rel = 0.0005;  // input-referred noise / full-scale
  /// Multiplier applied to payoffs (after the non-negativity shift) before
  /// integer coding; 1.0 when the shifted payoffs are already integers.
  double value_scale = 1.0;
  /// Explicit cells-per-element override (0 = derived from the max shifted
  /// payoff and the cell level count).
  std::uint32_t cells_per_element = 0;
  /// Conductance levels per cell: 2 = binary (paper default); > 2 enables the
  /// multi-level-cell FeFET extension ([29]), shrinking the array at the cost
  /// of intermediate-level programming spread.
  std::uint32_t levels_per_cell = 2;
  /// Expose the incremental propose/commit fast path to the SA loop. Off, the
  /// annealer falls back to a full crossbar re-read per iteration.
  bool incremental = true;
};

}  // namespace cnash::core

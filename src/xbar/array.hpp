#pragma once
// A programmed FeFET crossbar array with static per-cell variability.
//
// Every physical cell's read current is sampled once at programming time
// (device-to-device variation is static), then folded into flat
// structure-of-arrays buffers:
//
//   * `prefix_` — one contiguous array holding, per element block (i,j), a
//     2-D prefix-sum table P of size (I+1)×(I+1) where P[r][g] is the summed
//     current of the first r rows and first g column groups of the block
//     ('1' cells at their sampled ON currents, '0' cells at leakage). Blocks
//     are row-major, tables row-major within a block.
//   * `mv_table_` — the per-column conductance sums driving Phase-1 MV
//     reads: entry (j, g, i) = P_ij[I][g], the full-row current of block
//     (i,j) at g active groups, laid out with i contiguous so a q_j group
//     change updates all n line currents with one contiguous pass.
//
// A matrix-vector or vector-matrix-vector read is then an O(n·m) table walk
// over contiguous memory while remaining *exactly* equal to the sum of the
// individual cell currents — cell-level fidelity at simulation speed. On top
// of the full reads, O(n) / O(m) delta kernels report how the line currents
// and the total array current move when a single strategy tick changes one
// activation count — the basis of the incremental two-phase evaluator. A
// direct per-cell read path is kept for validation and for the Fig. 7(a)
// robustness experiment.

#include <cstdint>
#include <span>
#include <vector>

#include "fefet/cell_1t1r.hpp"
#include "util/rng.hpp"
#include "xbar/mapping.hpp"

namespace cnash::xbar {

struct ArrayConfig {
  fefet::FeFetParams fet;
  fefet::VariabilityParams variability;
  fefet::CellBias bias;
  bool ideal = false;  // true: no variability, every ON cell = nominal i_on
  /// Fast device sampling: per-cell currents from a calibrated response
  /// surface (linearised ON-current sensitivity to ΔV_TH / ΔR — accurate
  /// because the 1R clamps the ON current — and the exact exponential
  /// subthreshold law for OFF cells) instead of the per-cell fixed-point
  /// solve. Validated against the exact path in tests; ~50× faster to
  /// program multi-million-cell arrays.
  bool fast_sampling = true;
  /// Fault injection: fraction of cells stuck non-conducting (broken FeFET /
  /// open resistor) and stuck conducting at the nominal ON current (shorted
  /// / depolarised device), sampled independently per cell at program time.
  double stuck_off_rate = 0.0;
  double stuck_on_rate = 0.0;
};

class ProgrammedCrossbar {
 public:
  ProgrammedCrossbar(CrossbarMapping mapping, const ArrayConfig& config,
                     util::Rng& rng);

  /// Programs one array per mapping from one generator: the same bits and
  /// draws as constructing them one after another in order, sampled in one
  /// pass over all their blocks so that many small arrays (a chip's tiles)
  /// share the sampler's generator lanes. The mappings must share I, t and
  /// levels_per_cell.
  static std::vector<ProgrammedCrossbar> program_all(
      std::vector<CrossbarMapping> mappings, const ArrayConfig& config,
      util::Rng& rng);

  const CrossbarMapping& mapping() const { return mapping_; }
  const ArrayConfig& config() const { return config_; }

  /// All block-row currents: the analog vector that feeds the WTA tree.
  /// For an MV read (Mq), pass rows_active = I everywhere.
  std::vector<double> read_mv(
      const std::vector<std::uint32_t>& groups_active) const;

  /// Allocation-free MV read: writes the n block-row currents (all word
  /// lines active) into `out[0..n)`.
  void read_mv_into(const std::vector<std::uint32_t>& groups_active,
                    double* out) const;

  /// Raw-pointer variant for callers holding activations in a larger buffer
  /// (a chip tile slicing the global count vectors): `groups_active[0..m)`,
  /// no size validation.
  void read_mv_into(const std::uint32_t* groups_active, double* out) const;

  /// Total array current: the VMV read pᵀMq (Phase 2 of Fig. 6).
  double read_vmv(const std::vector<std::uint32_t>& rows_active,
                  const std::vector<std::uint32_t>& groups_active) const;

  /// Raw-pointer VMV read: `rows_active[0..n)`, `groups_active[0..m)`.
  double read_vmv(const std::uint32_t* rows_active,
                  const std::uint32_t* groups_active) const;

  // ---- Incremental delta kernels (single-tick activation changes) ----------
  //
  // A strategy tick move changes one activation count by ±1; these kernels
  // report the resulting current changes from the precomputed tables instead
  // of re-reading the whole array. All are exact (same table entries a full
  // read would sum, differenced instead).

  /// Phase-1 update: adds (column j at g_new) − (column j at g_old) to the n
  /// full-row line currents in `mv[0..n)`. O(n), contiguous.
  void mv_group_delta(std::size_t j, std::uint32_t g_old, std::uint32_t g_new,
                      double* mv) const;

  /// Phase-2 update: change of the total array current when block-row i goes
  /// from r_old to r_new active word lines under `groups_active`. O(m).
  double vmv_row_delta(std::size_t i, std::uint32_t r_old, std::uint32_t r_new,
                       const std::vector<std::uint32_t>& groups_active) const;

  /// Raw-pointer variant: `groups_active[0..m)`, no size validation.
  double vmv_row_delta(std::size_t i, std::uint32_t r_old, std::uint32_t r_new,
                       const std::uint32_t* groups_active) const;

  /// Phase-2 update: change of the total array current when block column j
  /// goes from g_old to g_new active groups under `rows_active`. O(n).
  double vmv_group_delta(std::size_t j, std::uint32_t g_old,
                         std::uint32_t g_new,
                         const std::vector<std::uint32_t>& rows_active) const;

  /// Raw-pointer variant: `rows_active[0..n)`, no size validation.
  double vmv_group_delta(std::size_t j, std::uint32_t g_old,
                         std::uint32_t g_new,
                         const std::uint32_t* rows_active) const;

  /// Slow path: direct sum over the activated cells (validation only).
  double read_vmv_percell(const std::vector<std::uint32_t>& rows_active,
                          const std::vector<std::uint32_t>& groups_active) const;

  /// Nominal full-ON single-cell current.
  double nominal_on_current() const { return i_on_nominal_; }

  /// Current per unit of payoff value: i_on / (levels_per_cell - 1) — a
  /// full-ON cell codes (levels-1) payoff units.
  double unit_current() const;

  /// Convert an output current into payoff-matrix units: payoff value
  /// v = current / (i_on_nominal): one conducting cell == one payoff unit
  /// under full activation of I rows and I groups scaled by 1/I².
  double current_to_value(double current) const;

 private:
  /// An unprogrammed array: zeroed prefix tables, no MV table.
  ProgrammedCrossbar(CrossbarMapping mapping, const ArrayConfig& config);
  /// Samples every cell of `arrays` from `rng` (array after array, blocks
  /// row-major) and builds their MV tables.
  static void program(std::span<ProgrammedCrossbar> arrays, util::Rng& rng);

  double sampled_cell_current(std::size_t row, std::size_t col) const;
  const double* block_table(std::size_t i, std::size_t j) const {
    return prefix_.data() + (i * mapping_.geometry().m + j) * block_stride_;
  }

  CrossbarMapping mapping_;
  ArrayConfig config_;
  double i_on_nominal_ = 0.0;
  // Flat SoA prefix tables: block (i,j) occupies block_stride_ = (I+1)²
  // doubles starting at (i*m + j) * block_stride_; entry (r,g) sits at
  // r*table_dim_ + g within the block.
  std::vector<double> prefix_;
  // Per-column full-row sums for MV reads: entry (j, g, i) at
  // (j*table_dim_ + g)*n + i equals prefix entry (i, j, I, g).
  std::vector<double> mv_table_;
  std::size_t table_dim_;     // I+1
  std::size_t block_stride_;  // (I+1)²
};

}  // namespace cnash::xbar

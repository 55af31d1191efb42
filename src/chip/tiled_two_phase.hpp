#pragma once
// chip::TiledTwoPhaseEvaluator — the two-phase hardware evaluation of the
// MAX-QUBO objective (Fig. 6), the one implementation behind "hardware-sa"
// and "hardware-sa-tiled".
//
// Phase 1: both crossbars (M and Nᵀ) are read in matrix-vector mode (the
//          other player's input fixed to the all-ones vector) producing the
//          analog vectors Mq and Nᵀp; the WTA trees reduce them to max(Mq)
//          and max(Nᵀp), which are digitised and recorded by the SA logic.
// Phase 2: the crossbars are read in vector-matrix-vector mode giving pᵀMq
//          and pᵀNq (the WTA trees are bypassed); the SA logic combines
//          f = max(Mq) + max(Nᵀp) − pᵀMq − pᵀNq.
//
// Both logical crossbars are sharded over grids of fixed-capacity tiles
// (chip/tiled_crossbar); the per-tile outputs are merged by an H-tree adder
// stage and the merged Phase-1 line currents feed the WTA trees / ADCs.
// "hardware-sa" is the degenerate chip: one tile sized to hold both arrays
// whole (single_tile_chip), whose 1×1 grids have no aggregation stage.
// Every SA iteration experiences device variability, WTA offset and ADC
// quantization exactly as the architecture would.
//
// Incremental fast path (propose/commit protocol): a single SA tick move
// changes one entry of p or q by ±1/I, so the architecture only re-drives
// one word line / column group. The committed analog state is held PER
// TILE — the Phase-1 partial line currents per tile column and the Phase-2
// partial totals per tile — plus the aggregated totals the digitisation
// consumes. A proposal routes every move to the affected tile row / column
// (O(m+n) per move) and updates only the totals; WTA reduction, per-read
// noise and ADC conversion are applied to the updated totals on every
// proposal, so fidelity semantics and RNG draw order are identical to the
// full-read path. A commit takes over the proposal's totals and replays the
// moves into the per-tile partials; a full re-read every `refresh_interval`
// commits bounds floating-point drift.
//
// Readout modes (ChipConfig::readout):
//   * kAnalogHTree  — analog current summation + shared ADC. A 1×1 grid
//                     draws no aggregation noise, so its draw sequence is
//                     that of the plain array whatever the tile size.
//   * kPerTileAdc   — every tile output digitised by its own ADC, digital
//                     aggregation and digital max. Per-tile quantisation
//                     breaks delta linearity, so incremental() is disabled.
//   * kIdealDigital — exact integer conducting-unit counts, WTA/ADC
//                     bypassed; with integer payoffs and power-of-two I the
//                     objective is bit-identical to core::ExactMaxQubo.

#include <cstdint>
#include <memory>
#include <vector>

#include "chip/chip_config.hpp"
#include "chip/tiled_crossbar.hpp"
#include "core/maxqubo.hpp"
#include "core/two_phase.hpp"
#include "game/game.hpp"
#include "util/rng.hpp"
#include "wta/wta_tree.hpp"
#include "xbar/adc.hpp"
#include "xbar/mapping.hpp"

namespace cnash::chip {

/// Mapped geometry of the two arrays a game programs — M (rows = player-1
/// actions) and Nᵀ (rows = player-2 actions) — through the evaluator's
/// shift / scale / coding pipeline. Pure arithmetic on the payoffs: no cell
/// is programmed. Throws std::invalid_argument where the evaluator would
/// (I == 0, value_scale <= 0, payoffs that do not code as integers).
struct ArrayGeometry {
  xbar::MappingGeometry m;
  xbar::MappingGeometry nt;
};
ArrayGeometry mapped_geometry(const game::BimatrixGame& game,
                              std::uint32_t intervals,
                              const core::TwoPhaseConfig& config);

/// "hardware-sa"'s chip: one tile just large enough to hold both arrays
/// whole, read out through the analog path with no aggregation stage.
ChipConfig single_tile_chip(const ArrayGeometry& geometry);

class TiledTwoPhaseEvaluator final : public core::ObjectiveEvaluator,
                                     public core::IncrementalEvaluator {
 public:
  /// Programs both tile grids from the game. `intervals` is the strategy
  /// quantization I; `config` carries the array / WTA / ADC / value-coding
  /// knobs, `chip` the tile dimensions and aggregation model; `rng` drives
  /// the one-time device sampling and the per-read noise afterwards.
  ///
  /// `fault` (optional) is consumed during construction only: tile-failure
  /// rolls use scope base 0 for the M grid and kNtFaultScope for the Nᵀ grid.
  /// When the program-time read-back flags any tile on either grid the
  /// constructor throws ChipFault (the "resilient" backend's retry trigger).
  /// A null/disabled plan changes nothing — no extra RNG draws.
  TiledTwoPhaseEvaluator(game::BimatrixGame game, std::uint32_t intervals,
                         const core::TwoPhaseConfig& config,
                         const ChipConfig& chip, util::Rng rng,
                         const util::FaultPlan* fault = nullptr);

  /// "hardware-sa"'s evaluator: the game on single_tile_chip().
  TiledTwoPhaseEvaluator(const game::BimatrixGame& game,
                         std::uint32_t intervals,
                         const core::TwoPhaseConfig& config, util::Rng rng)
      : TiledTwoPhaseEvaluator(
            game, intervals, config,
            single_tile_chip(mapped_geometry(game, intervals, config)), rng) {}

  /// Fault-roll index base of the Nᵀ grid's tiles (M grid starts at 0).
  static constexpr std::uint64_t kNtFaultScope = std::uint64_t{1} << 32;

  double evaluate(const game::QuantizedProfile& profile) override;
  const game::BimatrixGame& game() const override { return game_; }
  core::IncrementalEvaluator* incremental() override {
    return (config_.incremental && chip_.readout != ChipReadout::kPerTileAdc)
               ? this
               : nullptr;
  }

  // IncrementalEvaluator protocol: O(m+n) per tick move, same noise/ADC
  // semantics and RNG draw sequence per scoring as evaluate().
  void reset(const game::QuantizedProfile& profile) override;
  double propose(const core::TickMove* moves, std::size_t count) override;
  void commit() override;

  /// Full re-reads performed by the incremental path since reset().
  std::size_t refresh_count() const { return refresh_count_; }

  /// Phase observables of the last evaluate()/propose(), in payoff units.
  struct PhaseReadout {
    double max_mq;
    double max_ntp;
    double vmv_m;
    double vmv_n;
  };
  const PhaseReadout& last_readout() const { return last_; }

  std::uint32_t intervals() const { return intervals_; }
  const ChipConfig& chip_config() const { return chip_; }
  const TiledCrossbar& chip_m() const { return *chip_m_; }
  const TiledCrossbar& chip_nt() const { return *chip_nt_; }
  const wta::WtaTree& wta_rows() const { return *wta_rows_; }
  const wta::WtaTree& wta_cols() const { return *wta_cols_; }
  const xbar::Adc& adc() const { return *adc_m_; }

  /// Committed per-tile Phase-1 partials / Phase-2 partial grid of the M
  /// (resp. Nᵀ) array — introspection for tests and per-tile energy
  /// accounting. Valid after reset().
  const std::vector<double>& committed_mv_partials_m() const {
    return committed_.m.mv_partial;
  }
  const std::vector<double>& committed_vmv_partials_m() const {
    return committed_.m.vmv_partial;
  }

 private:
  /// Per-array analog + digital observables. Partials are maintained in the
  /// committed state only; proposals work on the aggregated totals (the
  /// digitisation input), which a commit takes over before replaying the
  /// moves into the partials.
  struct ArrayState {
    std::vector<double> mv_partial;   // grid_cols × n (analog readouts)
    std::vector<double> mv_total;     // n aggregated line currents
    std::vector<double> vmv_partial;  // grid_rows × grid_cols
    double vmv_total = 0.0;
    std::vector<std::int64_t> mv_units;  // n (kIdealDigital)
    std::int64_t vmv_units = 0;
  };
  struct State {
    ArrayState m;   // the M array: rows = player-1 actions
    ArrayState nt;  // the Nᵀ array: rows = player-2 actions
  };

  void size_state(State& st) const;
  /// Full tile-grid read of one profile into `st` (partials + totals).
  void full_read(State& st, const std::vector<std::uint32_t>& p_counts,
                 const std::vector<std::uint32_t>& q_counts) const;
  /// One tick move applied to the given counts and to either the totals
  /// (proposal path) or the per-tile partials (commit path) of `st`.
  void apply_move(State& st, std::vector<std::uint32_t>& p_counts,
                  std::vector<std::uint32_t>& q_counts,
                  const core::TickMove& mv, bool partials);
  /// Aggregation + WTA + noise + ADC on `st`; updates last_ and returns f.
  double digitize(const State& st);
  double digitize_analog(const State& st);
  double digitize_per_tile_adc(const State& st);
  double digitize_digital(const State& st);

  game::BimatrixGame game_;
  std::uint32_t intervals_;
  core::TwoPhaseConfig config_;
  ChipConfig chip_;
  util::Rng rng_;
  double value_scale_;
  std::unique_ptr<TiledCrossbar> chip_m_;
  std::unique_ptr<TiledCrossbar> chip_nt_;
  std::unique_ptr<wta::WtaTree> wta_rows_;
  std::unique_ptr<wta::WtaTree> wta_cols_;
  std::unique_ptr<xbar::Adc> adc_m_;
  std::unique_ptr<xbar::Adc> adc_nt_;
  PhaseReadout last_{};

  // H-tree aggregation noise (per aggregated output per read): sigma already
  // scaled by sqrt(stage depth); 0 when the grid needs no aggregation.
  double agg_sigma_mv_m_ = 0.0, agg_sigma_mv_nt_ = 0.0;
  double agg_sigma_vmv_m_ = 0.0, agg_sigma_vmv_nt_ = 0.0;

  // Incremental state (see class comment).
  std::vector<std::uint32_t> p_counts_, q_counts_;    // committed
  std::vector<std::uint32_t> p_scratch_, q_scratch_;  // proposal
  State committed_, scratch_;
  State eval_state_;  // evaluate()'s workspace, independent of proposals
  std::vector<core::TickMove> pending_;  // outstanding proposal's moves
  std::vector<double> wta_scratch_, agg_scratch_;
  bool primed_ = false;
  bool proposal_outstanding_ = false;
  std::size_t commits_since_refresh_ = 0;
  std::size_t refresh_count_ = 0;
};

}  // namespace cnash::chip

#include "chip/tiled_two_phase.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace cnash::chip {

namespace {

/// The payoff matrices the M and Nᵀ arrays store. The MAX-QUBO objective is
/// invariant to a common constant shift of both payoff matrices (Σp = Σq = 1
/// exactly on the quantized grid), so shift to non-negative and scale to
/// integers for the unary cell coding.
std::pair<la::Matrix, la::Matrix> scaled_arrays(const game::BimatrixGame& game,
                                                double value_scale) {
  if (value_scale <= 0.0)
    throw std::invalid_argument("TiledTwoPhaseEvaluator: value_scale <= 0");
  const game::BimatrixGame shifted = game.shifted_non_negative(0.0);
  return {shifted.payoff1() * value_scale,
          shifted.payoff2().transposed() * value_scale};
}

}  // namespace

ArrayGeometry mapped_geometry(const game::BimatrixGame& game,
                              std::uint32_t intervals,
                              const core::TwoPhaseConfig& config) {
  const auto [m, nt] = scaled_arrays(game, config.value_scale);
  auto geometry = [&](const la::Matrix& payoff) {
    return xbar::CrossbarMapping(payoff, intervals, config.cells_per_element,
                                 config.levels_per_cell)
        .geometry();
  };
  return {geometry(m), geometry(nt)};
}

ChipConfig single_tile_chip(const ArrayGeometry& geometry) {
  ChipConfig chip;
  chip.tile_rows =
      std::max(geometry.m.total_rows(), geometry.nt.total_rows());
  chip.tile_cols =
      std::max(geometry.m.total_cols(), geometry.nt.total_cols());
  return chip;
}

TiledTwoPhaseEvaluator::TiledTwoPhaseEvaluator(game::BimatrixGame game,
                                               std::uint32_t intervals,
                                               const core::TwoPhaseConfig& config,
                                               const ChipConfig& chip,
                                               util::Rng rng,
                                               const util::FaultPlan* fault)
    : game_(std::move(game)),
      intervals_(intervals),
      config_(config),
      chip_(chip),
      rng_(rng),
      value_scale_(config.value_scale) {
  if (intervals_ == 0)
    throw std::invalid_argument("TiledTwoPhaseEvaluator: I == 0");

  const auto [m_scaled, nt_scaled] = scaled_arrays(game_, value_scale_);
  util::Rng rng_m = rng_.split();
  util::Rng rng_nt = rng_.split();
  chip_m_ = std::make_unique<TiledCrossbar>(
      m_scaled, intervals_, config_.cells_per_element, config_.levels_per_cell,
      config_.array, chip_.tile_rows, chip_.tile_cols, rng_m, fault,
      /*fault_scope=*/0);
  chip_nt_ = std::make_unique<TiledCrossbar>(
      nt_scaled, intervals_, config_.cells_per_element, config_.levels_per_cell,
      config_.array, chip_.tile_rows, chip_.tile_cols, rng_nt, fault,
      kNtFaultScope);
  if (!chip_m_->failed_tiles().empty() || !chip_nt_->failed_tiles().empty())
    throw ChipFault("TiledTwoPhaseEvaluator: program-time read-back failed (" +
                    std::to_string(chip_m_->failed_tiles().size()) +
                    " M tile(s), " +
                    std::to_string(chip_nt_->failed_tiles().size()) +
                    " Nt tile(s) below half nominal)");

  util::Rng rng_wta_rows = rng_.split();
  util::Rng rng_wta_cols = rng_.split();
  wta_rows_ = std::make_unique<wta::WtaTree>(game_.num_actions1(), config_.wta,
                                             &rng_wta_rows);
  wta_cols_ = std::make_unique<wta::WtaTree>(game_.num_actions2(), config_.wta,
                                             &rng_wta_cols);

  const double intervals_sq =
      static_cast<double>(intervals_) * static_cast<double>(intervals_);
  auto make_adc = [&](const TiledCrossbar& xb) {
    xbar::AdcConfig ac;
    ac.bits = config_.adc_bits;
    ac.full_scale_current = 1.2 * intervals_sq * xb.unit_current() *
                            (static_cast<double>(xb.max_element()) + 1.0);
    ac.noise_sigma = config_.adc_noise_rel * ac.full_scale_current;
    return std::make_unique<xbar::Adc>(ac);
  };
  adc_m_ = make_adc(*chip_m_);
  adc_nt_ = make_adc(*chip_nt_);
}

void TiledTwoPhaseEvaluator::full_read(State& st) {
  // The H-tree sums the per-tile partials: per row over the tile columns,
  // and over the whole grid, in fixed ascending order so refreshes are
  // reproducible.
  auto read = [&](const TiledCrossbar& xb,
                  const std::vector<std::uint32_t>& rows_active,
                  const std::vector<std::uint32_t>& groups_active,
                  ArrayState& a) {
    const std::size_t rows = xb.n();
    const std::size_t grid_cols = xb.partition().grid_cols();
    mv_partials_.resize(grid_cols * rows);
    xb.read_mv_partials(groups_active.data(), mv_partials_.data());
    a.mv_total.assign(rows, 0.0);
    for (std::size_t tc = 0; tc < grid_cols; ++tc) {
      const double* col = mv_partials_.data() + tc * rows;
      for (std::size_t i = 0; i < rows; ++i) a.mv_total[i] += col[i];
    }
    vmv_partials_.resize(xb.partition().num_tiles());
    xb.read_vmv_partials(rows_active.data(), groups_active.data(),
                         vmv_partials_.data());
    a.vmv_total = 0.0;
    for (const double v : vmv_partials_) a.vmv_total += v;
  };
  read(*chip_m_, st.p_counts, st.q_counts, st.m);
  read(*chip_nt_, st.q_counts, st.p_counts, st.nt);
}

double TiledTwoPhaseEvaluator::digitize(const State& st) {
  // ---- Phase 1: H-tree row sums -> WTA -> max(Mq), max(Nᵀp). ---------------
  const double max_mq_current = wta_rows_->reduce(
      st.m.mv_total.data(), st.m.mv_total.size(), &rng_, wta_scratch_);
  const double max_ntp_current = wta_cols_->reduce(
      st.nt.mv_total.data(), st.nt.mv_total.size(), &rng_, wta_scratch_);
  const double max_mq =
      chip_m_->current_to_value(adc_m_->convert(max_mq_current, rng_));
  const double max_ntp =
      chip_nt_->current_to_value(adc_nt_->convert(max_ntp_current, rng_));

  // ---- Phase 2: grid sums -> total currents -> pᵀMq, pᵀNq. -----------------
  const double vmv_m =
      chip_m_->current_to_value(adc_m_->convert(st.m.vmv_total, rng_));
  const double vmv_n =
      chip_nt_->current_to_value(adc_nt_->convert(st.nt.vmv_total, rng_));

  last_ = {max_mq, max_ntp, vmv_m, vmv_n};
  return (max_mq + max_ntp - vmv_m - vmv_n) / value_scale_;
}

double TiledTwoPhaseEvaluator::evaluate(const game::QuantizedProfile& profile) {
  if (profile.p.num_actions() != game_.num_actions1() ||
      profile.q.num_actions() != game_.num_actions2() ||
      profile.p.intervals() != intervals_ || profile.q.intervals() != intervals_)
    throw std::invalid_argument("TiledTwoPhaseEvaluator: profile shape mismatch");
  eval_state_.p_counts = profile.p.counts();
  eval_state_.q_counts = profile.q.counts();
  full_read(eval_state_);
  return digitize(eval_state_);
}

// ---- Incremental propose/commit protocol ------------------------------------

void TiledTwoPhaseEvaluator::reset(const game::QuantizedProfile& profile) {
  if (profile.p.num_actions() != game_.num_actions1() ||
      profile.q.num_actions() != game_.num_actions2() ||
      profile.p.intervals() != intervals_ || profile.q.intervals() != intervals_)
    throw std::invalid_argument("TiledTwoPhaseEvaluator::reset: shape mismatch");
  committed_.p_counts = profile.p.counts();
  committed_.q_counts = profile.q.counts();
  full_read(committed_);
  primed_ = true;
  proposal_outstanding_ = false;
  commits_since_refresh_ = 0;
  refresh_count_ = 0;
}

void TiledTwoPhaseEvaluator::apply_move(State& st,
                                        const core::TickMove& mv) const {
  // A row (p) tick moves a word line of the M array and a column group of
  // Nᵀ; a column (q) tick moves a word line of Nᵀ and a column group of M.
  const bool row = mv.player == core::TickMove::Player::kRow;
  std::vector<std::uint32_t>& counts = row ? st.p_counts : st.q_counts;
  const std::uint32_t* other = (row ? st.q_counts : st.p_counts).data();
  const TiledCrossbar& xl = row ? *chip_m_ : *chip_nt_;  // word line moves
  const TiledCrossbar& xg = row ? *chip_nt_ : *chip_m_;  // column group moves
  ArrayState& lines = row ? st.m : st.nt;
  ArrayState& groups = row ? st.nt : st.m;
  const std::uint32_t f = counts[mv.from];
  const std::uint32_t t = counts[mv.to];
  if (f == 0 || t >= intervals_)
    throw std::logic_error("TiledTwoPhaseEvaluator: invalid tick move");

  lines.vmv_total += xl.vmv_row_delta(mv.from, f, f - 1, other) +
                     xl.vmv_row_delta(mv.to, t, t + 1, other);
  groups.vmv_total += xg.vmv_group_delta(mv.from, f, f - 1, other) +
                      xg.vmv_group_delta(mv.to, t, t + 1, other);
  xg.mv_group_delta(mv.from, f, f - 1, groups.mv_total.data());
  xg.mv_group_delta(mv.to, t, t + 1, groups.mv_total.data());
  counts[mv.from] = f - 1;
  counts[mv.to] = t + 1;
}

double TiledTwoPhaseEvaluator::propose(const core::TickMove* moves,
                                       std::size_t count) {
  if (!primed_)
    throw std::logic_error("TiledTwoPhaseEvaluator::propose before reset()");
  // A rejected proposal is discarded by starting the next one from a copy
  // of the committed state — O(m+n), no tile access. Until every move has
  // applied there is nothing to commit, so an invalid move that throws
  // leaves the committed state as it was.
  proposal_outstanding_ = false;
  scratch_ = committed_;
  for (std::size_t i = 0; i < count; ++i) apply_move(scratch_, moves[i]);
  proposal_outstanding_ = true;
  return digitize(scratch_);
}

void TiledTwoPhaseEvaluator::commit() {
  if (!proposal_outstanding_)
    throw std::logic_error("TiledTwoPhaseEvaluator::commit without propose()");
  proposal_outstanding_ = false;
  // The proposal's state is exactly what digitize() scored.
  std::swap(committed_, scratch_);
  if (++commits_since_refresh_ >= core::kRefreshInterval) {
    commits_since_refresh_ = 0;
    ++refresh_count_;
    full_read(committed_);
  }
}

}  // namespace cnash::chip

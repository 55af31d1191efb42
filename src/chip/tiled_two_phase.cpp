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
  if (config_.refresh_interval == 0)
    throw std::invalid_argument("TiledTwoPhaseEvaluator: refresh_interval == 0");

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

  size_state(committed_);
  size_state(scratch_);
  size_state(eval_state_);
}

void TiledTwoPhaseEvaluator::size_state(State& st) const {
  const std::size_t n = game_.num_actions1();
  const std::size_t m = game_.num_actions2();
  st.m.mv_partial.assign(chip_m_->partition().grid_cols() * n, 0.0);
  st.m.mv_total.assign(n, 0.0);
  st.m.vmv_partial.assign(chip_m_->partition().num_tiles(), 0.0);
  st.nt.mv_partial.assign(chip_nt_->partition().grid_cols() * m, 0.0);
  st.nt.mv_total.assign(m, 0.0);
  st.nt.vmv_partial.assign(chip_nt_->partition().num_tiles(), 0.0);
}

void TiledTwoPhaseEvaluator::full_read(
    State& st, const std::vector<std::uint32_t>& p_counts,
    const std::vector<std::uint32_t>& q_counts) const {
  chip_m_->read_mv_partials(q_counts.data(), st.m.mv_partial.data());
  chip_nt_->read_mv_partials(p_counts.data(), st.nt.mv_partial.data());
  chip_m_->read_vmv_partials(p_counts.data(), q_counts.data(),
                             st.m.vmv_partial.data());
  chip_nt_->read_vmv_partials(q_counts.data(), p_counts.data(),
                              st.nt.vmv_partial.data());
  // Aggregate: per-row sums over tile columns, grand total over the grid —
  // fixed ascending order, so refreshes are reproducible.
  auto aggregate = [](ArrayState& a, std::size_t rows) {
    std::fill(a.mv_total.begin(), a.mv_total.end(), 0.0);
    const std::size_t grid_cols = a.mv_partial.size() / rows;
    for (std::size_t tc = 0; tc < grid_cols; ++tc) {
      const double* col = a.mv_partial.data() + tc * rows;
      for (std::size_t i = 0; i < rows; ++i) a.mv_total[i] += col[i];
    }
    a.vmv_total = 0.0;
    for (const double v : a.vmv_partial) a.vmv_total += v;
  };
  aggregate(st.m, game_.num_actions1());
  aggregate(st.nt, game_.num_actions2());
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
  full_read(eval_state_, profile.p.counts(), profile.q.counts());
  return digitize(eval_state_);
}

// ---- Incremental propose/commit protocol ------------------------------------

void TiledTwoPhaseEvaluator::reset(const game::QuantizedProfile& profile) {
  if (profile.p.num_actions() != game_.num_actions1() ||
      profile.q.num_actions() != game_.num_actions2() ||
      profile.p.intervals() != intervals_ || profile.q.intervals() != intervals_)
    throw std::invalid_argument("TiledTwoPhaseEvaluator::reset: shape mismatch");
  p_counts_ = profile.p.counts();
  q_counts_ = profile.q.counts();
  p_scratch_ = p_counts_;
  q_scratch_ = q_counts_;
  full_read(committed_, p_counts_, q_counts_);
  pending_.clear();
  primed_ = true;
  proposal_outstanding_ = false;
  commits_since_refresh_ = 0;
  refresh_count_ = 0;
}

void TiledTwoPhaseEvaluator::apply_move(State& st,
                                        std::vector<std::uint32_t>& p_counts,
                                        std::vector<std::uint32_t>& q_counts,
                                        const core::TickMove& mv,
                                        bool partials) {
  // A row (p) tick moves a word line of the M array and a column group of
  // Nᵀ; a column (q) tick moves a word line of Nᵀ and a column group of M.
  const bool row = mv.player == core::TickMove::Player::kRow;
  std::vector<std::uint32_t>& counts = row ? p_counts : q_counts;
  const std::uint32_t* other = (row ? q_counts : p_counts).data();
  const TiledCrossbar& xl = row ? *chip_m_ : *chip_nt_;  // word line moves
  const TiledCrossbar& xg = row ? *chip_nt_ : *chip_m_;  // column group moves
  ArrayState& lines = row ? st.m : st.nt;
  ArrayState& groups = row ? st.nt : st.m;
  const std::uint32_t f = counts[mv.from];
  const std::uint32_t t = counts[mv.to];
  if (f == 0 || t >= intervals_)
    throw std::logic_error("TiledTwoPhaseEvaluator: invalid tick move");

  if (!partials) {
    lines.vmv_total += xl.vmv_row_delta(mv.from, f, f - 1, other, nullptr) +
                       xl.vmv_row_delta(mv.to, t, t + 1, other, nullptr);
    groups.vmv_total +=
        xg.vmv_group_delta(mv.from, f, f - 1, other, nullptr) +
        xg.vmv_group_delta(mv.to, t, t + 1, other, nullptr);
    xg.mv_group_delta_total(mv.from, f, f - 1, groups.mv_total.data());
    xg.mv_group_delta_total(mv.to, t, t + 1, groups.mv_total.data());
  } else {
    xl.vmv_row_delta(mv.from, f, f - 1, other, lines.vmv_partial.data());
    xl.vmv_row_delta(mv.to, t, t + 1, other, lines.vmv_partial.data());
    xg.vmv_group_delta(mv.from, f, f - 1, other, groups.vmv_partial.data());
    xg.vmv_group_delta(mv.to, t, t + 1, other, groups.vmv_partial.data());
    xg.mv_group_delta(mv.from, f, f - 1, groups.mv_partial.data());
    xg.mv_group_delta(mv.to, t, t + 1, groups.mv_partial.data());
  }
  counts[mv.from] = f - 1;
  counts[mv.to] = t + 1;
}

double TiledTwoPhaseEvaluator::propose(const core::TickMove* moves,
                                       std::size_t count) {
  if (!primed_)
    throw std::logic_error("TiledTwoPhaseEvaluator::propose before reset()");
  // Rejected proposals are discarded by re-deriving the scratch totals from
  // the committed state — O(m+n) copies, no tile access. Per-tile partials
  // are not copied: proposals score on the aggregated totals, and a commit
  // replays the deltas into the committed partials.
  scratch_.m.mv_total = committed_.m.mv_total;
  scratch_.nt.mv_total = committed_.nt.mv_total;
  scratch_.m.vmv_total = committed_.m.vmv_total;
  scratch_.nt.vmv_total = committed_.nt.vmv_total;
  p_scratch_ = p_counts_;
  q_scratch_ = q_counts_;
  pending_.assign(moves, moves + count);
  for (std::size_t i = 0; i < count; ++i)
    apply_move(scratch_, p_scratch_, q_scratch_, moves[i], /*partials=*/false);
  proposal_outstanding_ = true;
  return digitize(scratch_);
}

void TiledTwoPhaseEvaluator::commit() {
  if (!proposal_outstanding_)
    throw std::logic_error("TiledTwoPhaseEvaluator::commit without propose()");
  proposal_outstanding_ = false;
  // The proposal's totals are exactly the values digitize() scored: take
  // them over, then replay the accepted moves into the per-tile partials
  // (which walks the committed counts forward to the proposal's).
  committed_.m.mv_total.swap(scratch_.m.mv_total);
  committed_.nt.mv_total.swap(scratch_.nt.mv_total);
  committed_.m.vmv_total = scratch_.m.vmv_total;
  committed_.nt.vmv_total = scratch_.nt.vmv_total;
  for (const core::TickMove& mv : pending_)
    apply_move(committed_, p_counts_, q_counts_, mv, /*partials=*/true);
  if (++commits_since_refresh_ >= config_.refresh_interval) {
    commits_since_refresh_ = 0;
    ++refresh_count_;
    full_read(committed_, p_counts_, q_counts_);
  }
}

}  // namespace cnash::chip

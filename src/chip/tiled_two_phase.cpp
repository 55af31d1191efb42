#include "chip/tiled_two_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/bits.hpp"

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
  if (chip_.aggregation_noise_rel < 0.0)
    throw std::invalid_argument(
        "TiledTwoPhaseEvaluator: aggregation_noise_rel < 0");

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

  // Aggregation noise per merged output: one equivalent Gaussian scaled by
  // sqrt(stage depth). Degenerate fan-ins (1×1 grid / single tile column)
  // have depth 0 and draw nothing.
  auto agg_sigma = [&](const xbar::Adc& adc, std::size_t fanin) {
    const std::size_t depth = util::ceil_log2(fanin);
    return depth == 0 ? 0.0
                      : chip_.aggregation_noise_rel *
                            adc.config().full_scale_current *
                            std::sqrt(static_cast<double>(depth));
  };
  agg_sigma_mv_m_ = agg_sigma(*adc_m_, chip_m_->partition().grid_cols());
  agg_sigma_mv_nt_ = agg_sigma(*adc_nt_, chip_nt_->partition().grid_cols());
  agg_sigma_vmv_m_ = agg_sigma(*adc_m_, chip_m_->partition().num_tiles());
  agg_sigma_vmv_nt_ = agg_sigma(*adc_nt_, chip_nt_->partition().num_tiles());

  size_state(committed_);
  size_state(scratch_);
  size_state(eval_state_);
}

void TiledTwoPhaseEvaluator::size_state(State& st) const {
  const std::size_t n = game_.num_actions1();
  const std::size_t m = game_.num_actions2();
  if (chip_.readout == ChipReadout::kIdealDigital) {
    st.m.mv_units.assign(n, 0);
    st.nt.mv_units.assign(m, 0);
    return;
  }
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
  if (chip_.readout == ChipReadout::kIdealDigital) {
    chip_m_->digital_mv_units(q_counts.data(), st.m.mv_units.data());
    chip_nt_->digital_mv_units(p_counts.data(), st.nt.mv_units.data());
    st.m.vmv_units = chip_m_->digital_vmv_units(p_counts.data(), q_counts.data());
    st.nt.vmv_units =
        chip_nt_->digital_vmv_units(q_counts.data(), p_counts.data());
    return;
  }
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
  switch (chip_.readout) {
    case ChipReadout::kAnalogHTree:
      return digitize_analog(st);
    case ChipReadout::kPerTileAdc:
      return digitize_per_tile_adc(st);
    case ChipReadout::kIdealDigital:
      return digitize_digital(st);
  }
  throw std::logic_error("TiledTwoPhaseEvaluator: unknown readout");
}

double TiledTwoPhaseEvaluator::digitize_analog(const State& st) {
  // ---- Phase 1: H-tree row aggregation -> WTA -> max(Mq), max(Nᵀp). --------
  auto noisy_rows = [&](const std::vector<double>& totals, double sigma) {
    if (sigma <= 0.0) return totals.data();
    agg_scratch_.assign(totals.begin(), totals.end());
    for (double& v : agg_scratch_) v += rng_.normal(0.0, sigma);
    return static_cast<const double*>(agg_scratch_.data());
  };
  const double* mv_m = noisy_rows(st.m.mv_total, agg_sigma_mv_m_);
  const double max_mq_current =
      wta_rows_->reduce(mv_m, st.m.mv_total.size(), &rng_, wta_scratch_);
  const double* mv_nt = noisy_rows(st.nt.mv_total, agg_sigma_mv_nt_);
  const double max_ntp_current =
      wta_cols_->reduce(mv_nt, st.nt.mv_total.size(), &rng_, wta_scratch_);
  const double max_mq =
      chip_m_->current_to_value(adc_m_->convert(max_mq_current, rng_));
  const double max_ntp =
      chip_nt_->current_to_value(adc_nt_->convert(max_ntp_current, rng_));

  // ---- Phase 2: grid aggregation -> total currents -> pᵀMq, pᵀNq. ----------
  double vm = st.m.vmv_total;
  if (agg_sigma_vmv_m_ > 0.0) vm += rng_.normal(0.0, agg_sigma_vmv_m_);
  double vn = st.nt.vmv_total;
  if (agg_sigma_vmv_nt_ > 0.0) vn += rng_.normal(0.0, agg_sigma_vmv_nt_);
  const double vmv_m = chip_m_->current_to_value(adc_m_->convert(vm, rng_));
  const double vmv_n = chip_nt_->current_to_value(adc_nt_->convert(vn, rng_));

  last_ = {max_mq, max_ntp, vmv_m, vmv_n};
  return (max_mq + max_ntp - vmv_m - vmv_n) / value_scale_;
}

double TiledTwoPhaseEvaluator::digitize_per_tile_adc(const State& st) {
  // Every tile output is digitised by its own converter (identical config to
  // the shared one — the full-scale bound holds per tile because activations
  // are distribution-normalised), then aggregation and max are digital.
  auto mv_max = [&](const TiledCrossbar& xb, const ArrayState& a,
                    const xbar::Adc& adc, std::size_t rows) {
    const std::size_t grid_cols = xb.partition().grid_cols();
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rows; ++i) {
      double sum = 0.0;
      for (std::size_t tc = 0; tc < grid_cols; ++tc)
        sum += adc.convert(a.mv_partial[tc * rows + i], rng_);
      best = std::max(best, sum);
    }
    return xb.current_to_value(best);
  };
  const double max_mq =
      mv_max(*chip_m_, st.m, *adc_m_, game_.num_actions1());
  const double max_ntp =
      mv_max(*chip_nt_, st.nt, *adc_nt_, game_.num_actions2());

  auto vmv_value = [&](const TiledCrossbar& xb, const ArrayState& a,
                       const xbar::Adc& adc) {
    double sum = 0.0;
    for (const double v : a.vmv_partial) sum += adc.convert(v, rng_);
    return xb.current_to_value(sum);
  };
  const double vmv_m = vmv_value(*chip_m_, st.m, *adc_m_);
  const double vmv_n = vmv_value(*chip_nt_, st.nt, *adc_nt_);

  last_ = {max_mq, max_ntp, vmv_m, vmv_n};
  return (max_mq + max_ntp - vmv_m - vmv_n) / value_scale_;
}

double TiledTwoPhaseEvaluator::digitize_digital(const State& st) {
  // Integer unit counts -> payoff values; units/I² is exact for integer
  // payoffs, and exactly representable for power-of-two I.
  const double ii =
      static_cast<double>(intervals_) * static_cast<double>(intervals_);
  const std::int64_t best_m =
      *std::max_element(st.m.mv_units.begin(), st.m.mv_units.end());
  const std::int64_t best_nt =
      *std::max_element(st.nt.mv_units.begin(), st.nt.mv_units.end());
  const double max_mq = static_cast<double>(best_m) / ii;
  const double max_ntp = static_cast<double>(best_nt) / ii;
  const double vmv_m = static_cast<double>(st.m.vmv_units) / ii;
  const double vmv_n = static_cast<double>(st.nt.vmv_units) / ii;
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

  if (chip_.readout == ChipReadout::kIdealDigital) {
    lines.vmv_units += xl.digital_vmv_row_delta(mv.from, f, f - 1, other) +
                       xl.digital_vmv_row_delta(mv.to, t, t + 1, other);
    groups.vmv_units += xg.digital_vmv_group_delta(mv.from, f, f - 1, other) +
                        xg.digital_vmv_group_delta(mv.to, t, t + 1, other);
    xg.digital_mv_group_delta(mv.from, f, f - 1, groups.mv_units.data());
    xg.digital_mv_group_delta(mv.to, t, t + 1, groups.mv_units.data());
  } else if (!partials) {
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
  if (chip_.readout == ChipReadout::kPerTileAdc)
    // Per-tile quantisation breaks delta linearity; proposals would digitize
    // stale scratch partials. incremental() already reports unavailability.
    throw std::logic_error(
        "TiledTwoPhaseEvaluator::propose unavailable in per-tile ADC mode");
  // Rejected proposals are discarded by re-deriving the scratch totals from
  // the committed state — O(m+n) copies, no tile access. Per-tile partials
  // are not copied: proposals score on the aggregated totals, and a commit
  // replays the deltas into the committed partials.
  if (chip_.readout == ChipReadout::kIdealDigital) {
    scratch_.m.mv_units = committed_.m.mv_units;
    scratch_.nt.mv_units = committed_.nt.mv_units;
    scratch_.m.vmv_units = committed_.m.vmv_units;
    scratch_.nt.vmv_units = committed_.nt.vmv_units;
  } else {
    scratch_.m.mv_total = committed_.m.mv_total;
    scratch_.nt.mv_total = committed_.nt.mv_total;
    scratch_.m.vmv_total = committed_.m.vmv_total;
    scratch_.nt.vmv_total = committed_.nt.vmv_total;
  }
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
  if (chip_.readout == ChipReadout::kIdealDigital) {
    committed_.m.mv_units.swap(scratch_.m.mv_units);
    committed_.nt.mv_units.swap(scratch_.nt.mv_units);
    committed_.m.vmv_units = scratch_.m.vmv_units;
    committed_.nt.vmv_units = scratch_.nt.vmv_units;
    p_counts_.swap(p_scratch_);
    q_counts_.swap(q_scratch_);
    return;  // exact integers: no partials, no drift
  }
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

#include "core/maxqubo.hpp"

#include <stdexcept>

#include "simd/simd.hpp"

namespace cnash::core {

ExactMaxQubo::ExactMaxQubo(game::BimatrixGame game)
    : ExactMaxQubo(std::make_shared<const Shared>(std::move(game))) {}

ExactMaxQubo::ExactMaxQubo(std::shared_ptr<const Shared> shared)
    : shared_(std::move(shared)) {
  if (!shared_) throw std::invalid_argument("ExactMaxQubo: null shared block");
}

double ExactMaxQubo::evaluate(const game::QuantizedProfile& profile) {
  return evaluate_continuous(profile.p.to_distribution(),
                             profile.q.to_distribution());
}

double ExactMaxQubo::evaluate_continuous(const la::Vector& p,
                                         const la::Vector& q) const {
  return components(p, q).objective();
}

ExactMaxQubo::Components ExactMaxQubo::components(const la::Vector& p,
                                                  const la::Vector& q) const {
  Components c;
  const la::Vector mq = shared_->game.row_payoffs(q);
  const la::Vector ntp = shared_->game.col_payoffs(p);
  c.max_mq = la::max_element(mq);
  c.max_ntp = la::max_element(ntp);
  c.vmv = la::dot(p, mq) + la::dot(q, ntp);
  return c;
}

// ---- Incremental fast path --------------------------------------------------

double ExactMaxQubo::DeltaState::objective() const {
  return la::max_element(mq) + la::max_element(ntp) - ptmq - ptnq;
}

void ExactMaxQubo::recompute(DeltaState& st) const {
  const double inv = 1.0 / static_cast<double>(intervals_);
  dist_p_.resize(p_counts_.size());
  dist_q_.resize(q_counts_.size());
  for (std::size_t i = 0; i < dist_p_.size(); ++i)
    dist_p_[i] = static_cast<double>(p_counts_[i]) * inv;
  for (std::size_t j = 0; j < dist_q_.size(); ++j)
    dist_q_[j] = static_cast<double>(q_counts_[j]) * inv;
  shared_->game.payoff1().multiply_into(dist_q_, st.mq);
  shared_->game.payoff2().multiply_into(dist_q_, st.nq);
  shared_->game.payoff1().multiply_transposed_into(dist_p_, st.mtp);
  shared_->game.payoff2().multiply_transposed_into(dist_p_, st.ntp);
  st.ptmq = la::dot(dist_p_, st.mq);
  st.ptnq = la::dot(dist_p_, st.nq);
}

void ExactMaxQubo::apply_move(DeltaState& st, const TickMove& mv,
                              double tick) const {
  const la::Matrix& m = shared_->game.payoff1();
  const la::Matrix& n = shared_->game.payoff2();
  const std::size_t cols = m.cols();
  const std::size_t rows = m.rows();
  if (mv.player == TickMove::Player::kRow) {
    // p' = p + tick * (e_to − e_from): the bilinear terms move by the row
    // difference against the CURRENT q-products in `st`, which already
    // reflect any earlier q-move of the same proposal (exact cross term).
    st.ptmq += (st.mq[mv.to] - st.mq[mv.from]) * tick;
    st.ptnq += (st.nq[mv.to] - st.nq[mv.from]) * tick;
    const double* md = m.data().data();
    const double* nd = n.data().data();
    simd::add_scaled_diff(st.mtp.data(), md + mv.to * cols,
                          md + mv.from * cols, tick, cols);
    simd::add_scaled_diff(st.ntp.data(), nd + mv.to * cols,
                          nd + mv.from * cols, tick, cols);
  } else {
    st.ptmq += (st.mtp[mv.to] - st.mtp[mv.from]) * tick;
    st.ptnq += (st.ntp[mv.to] - st.ntp[mv.from]) * tick;
    // Column differences read from the transposed copies: same doubles the
    // strided m(i, to) − m(i, from) walk would load, contiguous layout.
    const double* mtd = shared_->mt.data().data();
    const double* ntd = shared_->nt.data().data();
    simd::add_scaled_diff(st.mq.data(), mtd + mv.to * rows,
                          mtd + mv.from * rows, tick, rows);
    simd::add_scaled_diff(st.nq.data(), ntd + mv.to * rows,
                          ntd + mv.from * rows, tick, rows);
  }
}

void ExactMaxQubo::reset(const game::QuantizedProfile& profile) {
  if (profile.p.num_actions() != shared_->game.num_actions1() ||
      profile.q.num_actions() != shared_->game.num_actions2())
    throw std::invalid_argument("ExactMaxQubo::reset: profile shape mismatch");
  if (profile.p.intervals() != profile.q.intervals())
    throw std::invalid_argument("ExactMaxQubo::reset: mixed interval counts");
  intervals_ = profile.p.intervals();
  p_counts_ = profile.p.counts();
  q_counts_ = profile.q.counts();
  pending_.clear();
  pending_.reserve(4);  // SA proposals carry at most two tick moves
  proposal_outstanding_ = false;
  commits_since_refresh_ = 0;
  recompute(committed_);
  // Pre-size the proposal scratch so the first propose() (and every later
  // one) only copies into existing capacity — no per-iteration heap churn.
  scratch_ = committed_;
}

double ExactMaxQubo::propose(const TickMove* moves, std::size_t count) {
  if (intervals_ == 0)
    throw std::logic_error("ExactMaxQubo::propose before reset()");
  scratch_ = committed_;
  const double tick = 1.0 / static_cast<double>(intervals_);
  for (std::size_t i = 0; i < count; ++i) apply_move(scratch_, moves[i], tick);
  pending_.assign(moves, moves + count);
  proposal_outstanding_ = true;
  return scratch_.objective();
}

void ExactMaxQubo::commit() {
  if (!proposal_outstanding_)
    throw std::logic_error("ExactMaxQubo::commit without propose()");
  proposal_outstanding_ = false;
  for (const TickMove& mv : pending_) {
    auto& counts = mv.player == TickMove::Player::kRow ? p_counts_ : q_counts_;
    counts[mv.from] -= 1;
    counts[mv.to] += 1;
  }
  pending_.clear();
  std::swap(committed_, scratch_);
  if (++commits_since_refresh_ >= kRefreshInterval) {
    commits_since_refresh_ = 0;
    recompute(committed_);
  }
}

}  // namespace cnash::core

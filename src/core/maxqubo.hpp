#pragma once
// The lossless MAX-QUBO transformation (Sec. 3.1).
//
// The Mangasarian–Stone quadratic program (Eq. 3-4) is converted — without
// slack variables — by replacing the inequality constraints with
//   α = max(Mq),  β = max(Nᵀp)                           (Eq. 7, 8)
// giving the objective
//   min_{p,q} f(p,q) = max(Mq) + max(Nᵀp) − pᵀ(M+N)q      (Eq. 9).
// Key properties (proved in the tests):
//   * f(p,q) >= 0 on the product of simplices;
//   * f(p,q) == 0  ⇔  (p,q) is a Nash equilibrium;
//   * f is invariant to adding a constant to both payoff matrices.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "game/game.hpp"
#include "game/strategy.hpp"

namespace cnash::core {

/// A single 1/I probability-tick transfer of one player — the SA
/// neighbourhood move of Alg. 1 expressed as data, so an evaluator can score
/// a candidate from the committed state plus a short move list instead of a
/// full profile.
struct TickMove {
  enum class Player : std::uint8_t { kRow, kCol };
  Player player;
  std::uint32_t from;
  std::uint32_t to;
};

/// Optional propose/commit protocol for evaluators with an incremental fast
/// path. Usage: reset(initial) primes the committed state; propose(moves)
/// scores the committed profile with the moves applied (without committing);
/// commit() adopts the last proposal. A propose() without a following
/// commit() is a rejection — the next propose() starts again from the
/// committed state. Instances are stateful and therefore thread-confined.
class IncrementalEvaluator {
 public:
  virtual ~IncrementalEvaluator() = default;
  virtual void reset(const game::QuantizedProfile& profile) = 0;
  virtual double propose(const TickMove* moves, std::size_t count) = 0;
  virtual void commit() = 0;
};

/// Evaluation interface shared by the exact software path and the
/// hardware-modelled two-phase path, so Alg. 1 runs unchanged on either.
class ObjectiveEvaluator {
 public:
  virtual ~ObjectiveEvaluator() = default;
  /// MAX-QUBO objective for a quantized strategy profile, in payoff units.
  virtual double evaluate(const game::QuantizedProfile& profile) = 0;
  virtual const game::BimatrixGame& game() const = 0;
  /// Non-null when the evaluator supports the incremental propose/commit
  /// protocol; the SA loop then skips the full per-iteration re-evaluation.
  virtual IncrementalEvaluator* incremental() { return nullptr; }
};

/// Exact floating-point evaluation of Eq. 9, with an O(m+n) incremental
/// fast path for single-tick SA moves: the committed state carries the four
/// products Mq, Nq, Mᵀp, Nᵀp plus the scalars pᵀMq, pᵀNq, so a tick move
/// updates two vectors (one matrix row/column difference) and two scalars
/// instead of recomputing full matrix-vector products. The state is
/// refreshed from scratch periodically to bound floating-point drift.
class ExactMaxQubo final : public ObjectiveEvaluator,
                           public IncrementalEvaluator {
 public:
  /// Read-only payoff block: the game plus the transposed copies used by
  /// column tick moves. Every evaluator an ExactEvaluatorFactory creates
  /// shares one instance, so the big immutable slabs exist once per job and
  /// each run or replica replicates only its O(m+n) delta state.
  struct Shared {
    explicit Shared(game::BimatrixGame g)
        : game(std::move(g)),
          mt(game.payoff1().transposed()),
          nt(game.payoff2().transposed()) {}
    game::BimatrixGame game;
    la::Matrix mt, nt;  // M^T, N^T
  };

  explicit ExactMaxQubo(game::BimatrixGame game);
  explicit ExactMaxQubo(std::shared_ptr<const Shared> shared);

  double evaluate(const game::QuantizedProfile& profile) override;
  const game::BimatrixGame& game() const override { return shared_->game; }
  IncrementalEvaluator* incremental() override { return this; }

  // IncrementalEvaluator protocol.
  void reset(const game::QuantizedProfile& profile) override;
  double propose(const TickMove* moves, std::size_t count) override;
  void commit() override;

  /// Continuous-strategy evaluation (tests / analysis).
  double evaluate_continuous(const la::Vector& p, const la::Vector& q) const;

  /// The three components of Eq. 9 (Phase 1 + Phase 2 observables).
  struct Components {
    double max_mq;
    double max_ntp;
    double vmv;  // pᵀ(M+N)q
    double objective() const { return max_mq + max_ntp - vmv; }
  };
  Components components(const la::Vector& p, const la::Vector& q) const;

 private:
  /// The cached products defining Eq. 9 at one profile.
  struct DeltaState {
    la::Vector mq, nq;    // Mq, Nq       (length n)
    la::Vector mtp, ntp;  // Mᵀp, Nᵀp     (length m)
    double ptmq = 0.0;    // pᵀMq
    double ptnq = 0.0;    // pᵀNq
    double objective() const;
  };
  void recompute(DeltaState& st) const;
  void apply_move(DeltaState& st, const TickMove& mv, double tick) const;

  // The game plus transposed payoff copies (column tick moves update against
  // contiguous rows — same values as the strided column walk, SIMD-friendly
  // layout). Possibly shared with the job's other runs and replicas.
  std::shared_ptr<const Shared> shared_;

  // Incremental state: committed profile counts, committed/scratch products,
  // and the moves of the outstanding proposal.
  std::uint32_t intervals_ = 0;
  std::vector<std::uint32_t> p_counts_, q_counts_;
  DeltaState committed_, scratch_;
  mutable la::Vector dist_p_, dist_q_;  // recompute() workspaces
  std::vector<TickMove> pending_;
  bool proposal_outstanding_ = false;
  std::size_t commits_since_refresh_ = 0;
};

}  // namespace cnash::core

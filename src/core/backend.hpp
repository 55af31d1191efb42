#pragma once
// core::SolverBackend — one SolveRequest → SolveReport contract for every
// solver family the paper compares (Table 1 / Fig. 10), behind a string-keyed
// registry:
//
//   "hardware-sa"       two-phase SA on the full FeFET crossbar/WTA/ADC model
//                       (chip/: one tile sized to the game)
//   "hardware-sa-tiled" two-phase SA on the multi-tile chip model (chip/)
//   "exact-sa"          two-phase SA on the exact MAX-QUBO objective (ablation)
//   "dwave-2000q6"      S-QUBO annealer proxy, 2000 Q6 flavour
//   "dwave-advantage41" S-QUBO annealer proxy, Advantage 4.1 flavour
//   "lemke-howson"      complementary pivoting from every initial label
//   "support-enum"      exhaustive support enumeration (ground truth)
//   "resilient"         hardware-sa[-tiled] with transparent per-unit
//                       exact-sa fallback on chip failure (core/resilient)
//
// A backend prepares a request into a PreparedJob: per-job immutable state
// (programmed crossbars, S-QUBO models) plus a count of independent work
// units (SA runs, annealer reads, pivot labels). Units are scheduled
// run-granularly by core::SolverService across concurrent jobs; every unit u
// derives its RNG streams from keyed splits of the job's root seed, so a
// job's report is bit-identical for any worker count and any submission
// interleaving. Every sample is ε-Nash-verified via game::verify, and every
// report carries the architecture-model wall clock from core::timing.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chip/chip_config.hpp"
#include "core/anneal.hpp"
#include "core/engine.hpp"
#include "core/sample.hpp"
#include "core/two_phase.hpp"
#include "game/game.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace cnash::core {

/// A solve job description, normalised across all solver families. Fields a
/// backend does not use are ignored (documented per field).
struct SolveRequest {
  explicit SolveRequest(game::BimatrixGame g) : game(std::move(g)) {}

  game::BimatrixGame game;
  /// Registry key of the backend that should solve this game.
  std::string backend = "hardware-sa";
  /// Independent sample units: SA runs (hardware-sa / exact-sa) or annealer
  /// reads (dwave-*). Ignored by the exhaustive exact solvers.
  std::size_t runs = 1;
  /// Per-job root seed: every unit derives its streams from keyed splits of
  /// this value, independent of scheduling. Ignored by the exact solvers.
  std::uint64_t seed = 0xC0FFEE;
  std::uint32_t intervals = 12;  // strategy quantization I (SA backends)
  SaOptions sa;                  // SA schedule (SA backends)
  TwoPhaseConfig hardware;       // hardware model knobs (hardware-sa[-tiled])
  chip::ChipConfig chip;         // tile grid knobs (hardware-sa-tiled)
  /// Report the best profile seen during a run instead of the final accepted
  /// one (SA backends).
  bool report_best = false;
  /// ε for the per-sample Nash verification recorded in every SolveSample.
  double nash_eps = 1e-7;
  /// Cap on this job's units simultaneously in flight on the service pool
  /// (0 = no cap). Changes wall-clock only, never results.
  std::size_t max_parallelism = 0;
  /// Anytime-degradation deadline in seconds (0 = none). Once a SolverService
  /// job exceeds it, remaining units are skipped and the best-so-far report
  /// is returned flagged degraded=true; in-flight units still complete, so
  /// the bound is deadline + one unit's wall time. Ignored by the
  /// synchronous SolverBackend::solve() path.
  double deadline_s = 0.0;
  /// "resilient" backend only: the primary hardware backend it wraps
  /// ("hardware-sa" or "hardware-sa-tiled").
  std::string resilient_primary = "hardware-sa";
  /// Deterministic fault injection, OFF by default. Solver-side rates are
  /// only accepted by the "resilient" backend (validate_request rejects them
  /// elsewhere); a disabled plan leaves every backend bit-identical to a
  /// request without one.
  util::FaultPlan fault;
};

/// The normalised result of one job.
struct SolveReport {
  std::string backend;
  std::string game_name;
  /// All samples, ordered by unit index (deterministic for a fixed request).
  std::vector<SolveSample> samples;
  std::size_t nash_count = 0;   // samples with is_nash
  std::size_t valid_count = 0;  // samples satisfying the simplex constraints
  /// Minimum backend-native objective over the valid samples (NaN if none).
  double best_objective = 0.0;
  /// Architecture-model wall clock (core/timing): SA run time × runs for
  /// hardware-sa, programming + reads × per-sample time for the D-Wave
  /// proxies, 0 for the pure-software solvers.
  double modeled_time_s = 0.0;
  /// Measured host wall clock from submission to completion. Scheduling-
  /// dependent — the only report field excluded from the determinism
  /// guarantee.
  double wall_clock_s = 0.0;
  /// Anytime degradation: true when the request deadline expired before
  /// every unit ran — samples cover only units_completed of units_total.
  /// Degraded reports are never stored in the gateway's solution cache.
  bool degraded = false;
  /// Runs-completed accounting: scheduled work units vs. units that actually
  /// produced samples (equal unless degraded).
  std::size_t units_total = 0;
  std::size_t units_completed = 0;
  /// Samples produced by the "resilient" backend's exact-sa fallback path
  /// after a primary hardware failure (0 for every other backend). Reports
  /// with fallbacks are never cached either.
  std::size_t fallback_count = 0;
  /// Replica-exchange telemetry, summed over the report's ensembles (0 for
  /// independent-mode SA and every non-SA backend): temperature-swap
  /// proposals and accepts. accepts/proposals is the observable Earl & Deem
  /// tune ladder spacing against; the gateway mirrors the totals into its
  /// metrics registry.
  std::size_t re_swap_proposals = 0;
  std::size_t re_swap_accepts = 0;

  std::size_t runs() const { return samples.size(); }
  double nash_rate() const;
};

/// A request bound to its per-job immutable state (programmed proxy models,
/// evaluator factories). Work units run concurrently on service workers, so
/// run_unit must be safe to call concurrently on a const instance and
/// deterministic in the unit index alone.
class PreparedJob {
 public:
  virtual ~PreparedJob() = default;
  virtual std::size_t num_units() const = 0;
  /// Unit u's samples (one per SA run / annealer read, zero or more for the
  /// exact solvers), ε-Nash-verified.
  virtual std::vector<SolveSample> run_unit(std::size_t unit) const = 0;
  /// Report post-processing once all units are assembled in unit order
  /// (e.g. cross-label dedup for lemke-howson). Aggregate counts are
  /// recomputed afterwards.
  virtual void finalize(SolveReport&) const {}

  // Report metadata, filled when the job is prepared.
  std::string backend_name;
  std::string game_name;
  double modeled_time_s = 0.0;
  std::size_t max_parallelism = 0;
};

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;
  /// Registry key.
  virtual const std::string& name() const = 0;
  /// One-line human description of the mechanism and its config knobs.
  virtual std::string describe() const = 0;
  virtual std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const = 0;
  /// Synchronous convenience path: prepare + run every unit inline on the
  /// calling thread. Same report as a SolverService submission (modulo
  /// wall_clock_s).
  SolveReport solve(const SolveRequest& request) const;
};

/// Size caps validate_request enforces on every backend. They sit far above
/// any sweep the paper or this repo runs (5000 runs, 8 replicas) and keep one
/// request from sizing a job's bookkeeping, or a replica ensemble, beyond
/// memory.
inline constexpr std::size_t kMaxRuns = std::size_t{1} << 20;
inline constexpr std::size_t kMaxReplicas = 64;
/// Physical cells either crossbar array of a hardware request may map to
/// (n·I word lines × m·I·t bit lines), times sa.replicas under replica
/// exchange. Programming samples every cell, so the cap bounds a unit's
/// time and memory. It sits above every array this repo programs
/// (perfbench's largest ≈ 4.1 M cells, random_128.game at I = 12 ≈ 21 M).
inline constexpr std::uint64_t kMaxArrayCells = std::uint64_t{1} << 25;
/// Support pairs a "support-enum" request may examine. The solver tries
/// every equal-size support pair of an n×m game, C(n+m, n) − 1 of them, in
/// one unit that no deadline can stop. 2^18 admits a 10×10 game (184 755
/// pairs, 0.55 s) and rejects 11×11 (705 431 pairs, 2.5 s) and larger square
/// games (random covariant games, Release build, one Intel Xeon core); exact
/// equilibrium search has no polynomial budget to fall back on.
inline constexpr std::uint64_t kMaxSupportPairs = std::uint64_t{1} << 18;

/// Support pairs game::support_enumeration examines on an n×m game (every
/// pair of equal-size supports): sum over k of C(n,k)·C(m,k), which is
/// C(n+m, n) − 1 by Vandermonde's identity. Returns cap + 1 for any count
/// above `cap`, without overflow whatever n and m.
std::uint64_t support_pairs(std::uint64_t n, std::uint64_t m,
                            std::uint64_t cap);

/// Submit-time request validation: throws std::invalid_argument with a clear
/// message for requests that could only fail later on a worker thread
/// (zero or more than kMaxRuns sample units, zero intervals, degenerate game
/// payoffs, zero SA iterations on an SA backend). Hardware requests
/// ("hardware-sa", "hardware-sa-tiled" and "resilient" over either) must
/// also map onto the chip: integer payoffs after the shift and scale, at
/// most kMaxArrayCells cells per array (counted over every replica's chip
/// under replica exchange), and on a tiled chip a tile that holds one
/// element block. "support-enum" requests may examine at most
/// kMaxSupportPairs support pairs. Backend-key resolution is validated
/// separately by the registry lookup.
void validate_request(const SolveRequest& request);

/// ε-Nash verification of freshly produced samples: sets is_nash and regret
/// from game::check_equilibrium (invalid samples get regret = NaN).
void verify_samples(const game::BimatrixGame& game, double nash_eps,
                    std::vector<SolveSample>& samples);

/// Recompute a report's aggregate fields from its samples.
void summarize(SolveReport& report);

/// Assemble a report from per-unit sample slots: concatenates in unit order,
/// applies the job's finalize() hook, recomputes aggregates. wall_clock_s is
/// left to the caller.
SolveReport assemble_report(const PreparedJob& job,
                            std::vector<std::vector<SolveSample>> slots);

/// String-keyed backend registry. Reads are lock-free; registration is not
/// thread-safe and should happen before concurrent use.
class SolverRegistry {
 public:
  /// Registers under backend->name(). Throws std::invalid_argument on a
  /// duplicate key.
  void add(std::unique_ptr<SolverBackend> backend);
  /// nullptr when unknown.
  const SolverBackend* find(const std::string& name) const;
  /// find() or throw std::invalid_argument listing the registered keys.
  const SolverBackend& at(const std::string& name) const;
  /// Registration order.
  std::vector<std::string> names() const;

  /// Process-wide registry preloaded with the built-in backends.
  static SolverRegistry& global();

 private:
  std::vector<std::unique_ptr<SolverBackend>> backends_;
};

/// The SA job shared by the hardware-sa[-tiled] / exact-sa backends.
///
/// Independent mode: unit u runs K = sa.batch_lanes runs, [u*K, u*K + K)
/// clipped to the run count, back to back. Run r anneals on evaluator
/// instance key 2r with SA stream key 2r + 1 (even/odd keys can never alias
/// across runs); the keys depend on r alone, so the report is byte-identical
/// for ANY batch_lanes value.
///
/// Replica-exchange mode: unit u is ONE ensemble of sa.replicas replicas,
/// stepped in lockstep, producing one sample (the winning replica). Ensemble
/// e uses a
/// key stride of (replicas + 1): replica l takes instance key
/// 2*(e*(R+1) + l) and SA stream key 2*(e*(R+1) + l) + 1, and the swap
/// proposals draw from stream key 2*(e*(R+1) + R) + 1 — all distinct within
/// and across ensembles.
class SaPreparedJob final : public PreparedJob {
 public:
  SaPreparedJob(std::shared_ptr<const EvaluatorFactory> factory,
                std::uint32_t intervals, SaOptions sa, bool report_best,
                std::uint64_t seed, std::size_t num_runs, double nash_eps);

  std::size_t num_units() const override;
  std::vector<SolveSample> run_unit(std::size_t unit) const override;

 private:
  std::vector<SolveSample> run_independent_unit(std::size_t unit) const;
  std::vector<SolveSample> run_ensemble_unit(std::size_t unit) const;

  std::shared_ptr<const EvaluatorFactory> factory_;
  std::uint32_t intervals_;
  SaOptions sa_;
  bool report_best_;
  util::Rng root_;  // keyed splits only — never advanced
  std::size_t num_runs_;
  double nash_eps_;
};

}  // namespace cnash::core

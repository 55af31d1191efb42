#pragma once
// CNashSolver — the public facade: program the bi-crossbar once for a game,
// then launch any number of two-phase SA runs and collect strategy-pair
// solutions. The evaluator can be the hardware model (default, full device /
// WTA / ADC non-idealities) or the exact software objective (ablation).
//
// Since the SolverService refactor this is a facade over the service: runs
// dispatch as run-granular units on the process-wide SolverService pool
// (capped at `threads` in-flight units), with per-run keyed RNG streams. For
// a fixed `seed`, run() returns bit-identical outcomes for EVERY cap (1, 2,
// 8, ...) — see service.hpp / engine.hpp. request()/submit() expose the same
// configuration as a unified SolveRequest on the "hardware-sa" / "exact-sa"
// registry backends, for callers that want asynchronous futures or full
// SolveReports.

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/anneal.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/two_phase.hpp"

namespace cnash::core {

struct CNashConfig {
  std::uint32_t intervals = 12;  // strategy quantization I
  SaOptions sa;
  bool use_hardware = true;
  TwoPhaseConfig hardware;
  /// Report the best profile seen during the run instead of the final
  /// accepted one (Alg. 1 reports the final recorded pair).
  bool report_best = false;
  /// Root seed: every run r derives its SA stream and evaluator instance
  /// from keyed splits of this value, independent of thread scheduling.
  std::uint64_t seed = 0xC0FFEE;
  /// Cap on in-flight runs on the shared service pool; 0 = no cap. Any value
  /// produces the same outcomes for the same seed.
  std::size_t threads = 0;
};

class CNashSolver {
 public:
  CNashSolver(game::BimatrixGame game, CNashConfig config = {});

  const game::BimatrixGame& game() const { return game_; }
  const CNashConfig& config() const { return config_; }

  /// The engine dispatching this solver's runs onto the shared service.
  SolverEngine& engine() { return engine_; }

  /// Probe evaluator for inspection (crossbar geometry, WTA corners, ADC
  /// scale, ...). A dedicated instance addressed by a reserved stream key —
  /// runs never share it, so reading it perturbs nothing.
  ObjectiveEvaluator& evaluator() { return *probe_; }

  /// Hardware probe access (nullptr when use_hardware is false).
  const chip::TiledTwoPhaseEvaluator* hardware() const {
    return probe_hardware_;
  }

  /// One annealing run (continues the engine's run-index sequence).
  SolveSample solve_once();

  /// `num_runs` independent annealing runs across the service workers.
  std::vector<SolveSample> run(std::size_t num_runs);

  /// This solver's configuration as a unified SolveRequest on the
  /// "hardware-sa" / "exact-sa" registry backend.
  SolveRequest request(std::size_t num_runs) const;

  /// Asynchronous batch through the shared SolverService. Always replays
  /// from run index 0 (equivalent to run(num_runs) on a fresh solver).
  std::future<SolveReport> submit(std::size_t num_runs) const;

  /// Synchronous service path: submit + wait.
  SolveReport solve(std::size_t num_runs) const;

 private:
  game::BimatrixGame game_;
  CNashConfig config_;
  SolverEngine engine_;
  std::unique_ptr<ObjectiveEvaluator> probe_;
  chip::TiledTwoPhaseEvaluator* probe_hardware_ = nullptr;  // view of probe_
};

}  // namespace cnash::core

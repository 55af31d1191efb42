#pragma once
// core::SolveSample — the one solution-candidate type every solver family
// reports. Before the SolverBackend registry, each family had its own result
// struct (the SA runs' RunOutcome, the D-Wave proxy's NashSample, raw
// Equilibrium pairs from the exact solvers), so every cross-solver experiment
// re-implemented its own normalisation. A sample is one candidate strategy
// pair plus the backend-native objective and its ε-Nash verification verdict.

#include <optional>
#include <string>

#include "game/strategy.hpp"
#include "la/matrix.hpp"

namespace cnash::core {

struct SolveSample {
  la::Vector p;
  la::Vector q;
  /// Backend-native objective, lower is better, 0 at an exact equilibrium
  /// for the SA families: the measured MAX-QUBO value (hardware-sa /
  /// exact-sa), the S-QUBO read energy (dwave-* proxies, penalty floor
  /// included), or the continuous equilibrium gap (exact solvers).
  double objective = 0.0;
  /// Strategy simplex constraints hold. Binary annealer reads can violate
  /// the one-hot constraints; SA and exact samples are always valid.
  bool valid = true;
  /// The quantized SA state that produced the sample (SA backends only).
  std::optional<game::QuantizedProfile> profile;
  /// ε-Nash verification verdict (game::check_equilibrium), filled by the
  /// backend when the sample is produced.
  bool is_nash = false;
  /// max(regret1, regret2) — best unilateral pure-deviation gain of either
  /// player; NaN for invalid samples.
  double regret = 0.0;
  /// True when the "resilient" meta-backend produced this sample on its
  /// exact-sa fallback path after the primary hardware unit failed; counted
  /// as SolveReport::fallback_count by summarize().
  bool fallback = false;
  /// Replica-exchange provenance (SA ensemble winners only, 0 elsewhere):
  /// the ensemble's temperature-swap proposal/accept totals, carried on the
  /// winning sample so summarize() can aggregate them into the report.
  std::size_t swap_proposals = 0;
  std::size_t swap_accepts = 0;

  /// Stable dedup key across runs: the quantized profile key when present,
  /// the rounded distributions otherwise.
  std::string key() const;
};

}  // namespace cnash::core

#pragma once
// Solution-quality metrics reproducing the paper's evaluation quantities:
//   * success rate (Table 1): fraction of runs whose reported strategy pair
//     is a true NE of the continuous game;
//   * solution distribution (Fig. 8): error / pure-NE / mixed-NE fractions;
//   * distinct solutions found vs ground-truth target (Fig. 9).

#include <string>
#include <vector>

#include "core/sample.hpp"
#include "game/verify.hpp"

namespace cnash::core {

struct SolverReport {
  std::size_t runs = 0;
  std::size_t pure_successes = 0;
  std::size_t mixed_successes = 0;
  std::size_t errors = 0;
  /// Per ground-truth-equilibrium hit counts (same order as the input list).
  std::vector<std::size_t> hits;

  std::size_t successes() const { return pure_successes + mixed_successes; }
  double success_rate() const;
  double pure_fraction() const;
  double mixed_fraction() const;
  double error_fraction() const;
  std::size_t distinct_found() const;
  std::size_t target() const { return hits.size(); }
};

/// Tally ε-Nash-verified samples (e.g. SolveReport::samples) against a
/// ground-truth equilibrium list. A sample is a success when its own verdict
/// (SolveSample::is_nash, set by verify_samples at the request's nash_eps)
/// holds; it additionally counts toward `hits` when it matches a ground-truth
/// equilibrium within match_tol.
SolverReport tally(const std::vector<SolveSample>& samples,
                   const std::vector<game::Equilibrium>& ground_truth,
                   double match_tol = 1e-4);

/// Render percentages like the paper's tables ("81.90").
std::string percent(double fraction, int precision = 2);

}  // namespace cnash::core

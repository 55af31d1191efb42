#include "core/metrics.hpp"

#include <cstdio>

namespace cnash::core {

double SolverReport::success_rate() const {
  return runs ? static_cast<double>(successes()) / static_cast<double>(runs)
              : 0.0;
}

double SolverReport::pure_fraction() const {
  return runs ? static_cast<double>(pure_successes) / static_cast<double>(runs)
              : 0.0;
}

double SolverReport::mixed_fraction() const {
  return runs ? static_cast<double>(mixed_successes) / static_cast<double>(runs)
              : 0.0;
}

double SolverReport::error_fraction() const {
  return runs ? static_cast<double>(errors) / static_cast<double>(runs) : 0.0;
}

std::size_t SolverReport::distinct_found() const {
  std::size_t d = 0;
  for (auto h : hits)
    if (h > 0) ++d;
  return d;
}

SolverReport tally(const std::vector<SolveSample>& samples,
                   const std::vector<game::Equilibrium>& ground_truth,
                   double match_tol) {
  SolverReport report;
  report.runs = samples.size();
  report.hits.assign(ground_truth.size(), 0);
  for (const SolveSample& s : samples) {
    if (!s.is_nash) {
      ++report.errors;
      continue;
    }
    if (game::is_pure_profile(s.p, s.q))
      ++report.pure_successes;
    else
      ++report.mixed_successes;
    const std::size_t idx =
        game::match_equilibrium(ground_truth, s.p, s.q, match_tol);
    if (idx != game::kNoMatch) ++report.hits[idx];
  }
  return report;
}

std::string percent(double fraction, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", precision, fraction * 100.0);
  return buf;
}

}  // namespace cnash::core

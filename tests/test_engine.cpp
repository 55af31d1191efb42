// Run dispatch on the shared SolverService: thread-cap-invariant determinism.
// The contract under test (see service.hpp): for a fixed seed, a SolveRequest
// returns bit-identical samples for ANY SolveRequest::max_parallelism,
// because every run derives its SA stream and evaluator instance from keyed
// RNG splits rather than from shared sequential state.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/service.hpp"
#include "game/games.hpp"

namespace cnash::core {
namespace {

/// Byte-level fingerprint of an outcome vector: exact doubles and profiles.
std::string fingerprint(const std::vector<SolveSample>& outcomes) {
  std::string fp;
  for (const auto& o : outcomes) {
    fp += o.profile->key();
    fp += '|';
    const auto append_bits = [&fp](double v) {
      const char* bytes = reinterpret_cast<const char*>(&v);
      fp.append(bytes, sizeof(v));
    };
    append_bits(o.objective);
    for (double x : o.p) append_bits(x);
    for (double x : o.q) append_bits(x);
    fp += '\n';
  }
  return fp;
}

/// `runs` SA runs on the Bird Game, at most `threads` in flight on the shared
/// service (0 = no cap).
SolveRequest bird_request(bool hardware, std::size_t threads,
                          std::uint64_t seed, std::size_t runs,
                          std::size_t iterations = 600) {
  SolveRequest req(game::bird_game());
  req.backend = hardware ? "hardware-sa" : "exact-sa";
  req.runs = runs;
  req.intervals = 12;
  req.sa.iterations = iterations;
  req.seed = seed;
  req.max_parallelism = threads;
  return req;
}

std::vector<SolveSample> solve(SolveRequest req) {
  return SolverService::shared().solve(std::move(req)).samples;
}

TEST(ServiceDispatch, ThreadCapInvariantExactBackend) {
  const auto baseline = fingerprint(solve(bird_request(false, 1, 0xABCD, 24)));
  for (const std::size_t threads : {2u, 8u})
    EXPECT_EQ(fingerprint(solve(bird_request(false, threads, 0xABCD, 24))),
              baseline)
        << "threads=" << threads;
}

TEST(ServiceDispatch, ThreadCapInvariantHardwareBackend) {
  // The strong version of the contract: even with per-instance device
  // variability and per-read noise, outcomes are scheduling-independent.
  const auto baseline = fingerprint(solve(bird_request(true, 1, 0xBEEF, 16)));
  for (const std::size_t threads : {2u, 8u})
    EXPECT_EQ(fingerprint(solve(bird_request(true, threads, 0xBEEF, 16))),
              baseline)
        << "threads=" << threads;
}

TEST(ServiceDispatch, DifferentSeedsProduceDifferentRuns) {
  EXPECT_NE(fingerprint(solve(bird_request(false, 2, 1, 8))),
            fingerprint(solve(bird_request(false, 2, 2, 8))));
}

TEST(ServiceDispatch, ReportBestNeverWorseThanFinal) {
  // Same seed => same per-run trajectories, so best <= final run by run.
  SolveRequest best_req = bird_request(false, 4, 555, 10);
  best_req.report_best = true;
  const auto of = solve(bird_request(false, 4, 555, 10));
  const auto ob = solve(std::move(best_req));
  ASSERT_EQ(ob.size(), of.size());
  for (std::size_t i = 0; i < of.size(); ++i)
    EXPECT_LE(ob[i].objective, of[i].objective + 1e-12);
}

TEST(ServiceDispatch, ParallelRunsStillSolve) {
  // Quality survives parallel dispatch: most runs land on equilibria.
  SolveRequest req = bird_request(false, 8, 4321, 24, /*iterations=*/4000);
  req.nash_eps = 1e-9;
  int nash = 0;
  for (const auto& o : solve(std::move(req)))
    if (o.is_nash) ++nash;
  EXPECT_GE(nash, 16);
}

TEST(ServiceDispatch, SameSeedSameOutcomesAcrossThreadCaps) {
  // `seed` fully determines run outcomes; max_parallelism (1, 2, 8) only
  // changes wall-clock, never results.
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SolveRequest req(game::battle_of_sexes());
    req.backend = "hardware-sa";
    req.runs = 12;
    req.sa.iterations = 400;
    req.seed = 20240613;
    req.max_parallelism = threads;
    const auto fp = fingerprint(solve(std::move(req)));
    if (baseline.empty())
      baseline = fp;
    else
      EXPECT_EQ(fp, baseline) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cnash::core

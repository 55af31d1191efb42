// Table 1's C-Nash row as a tier-1 contract: "hardware-sa" on the three
// paper instances (game::paper_benchmarks(), the paper's I and SA iteration
// counts) at 20 runs each, with the root seed bench_table1_success_rate
// uses. Success counts and distinct ground-truth equilibria found are exact:
// every run draws from keyed splits of the seed, so they are the same for any
// worker count and ISA. A refactor that silently shifts the hardware model's
// success rates fails here instead of only in the bench's printed table.
//
// The pinned numbers equal `bench_table1_success_rate 20`'s C-Nash row.

#include <gtest/gtest.h>

#include <array>
#include <future>
#include <vector>

#include "core/backend.hpp"
#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"

namespace cnash::core {
namespace {

constexpr std::size_t kRuns = 20;
constexpr std::uint64_t kSeed = 0xDA11A5;  // bench_common's evaluate_instance

struct Pinned {
  std::size_t successes;
  std::size_t distinct_found;
};

TEST(Table1, CNashRowIsPinned) {
  const std::vector<game::BenchmarkInstance> instances =
      game::paper_benchmarks();
  // Battle of the Sexes, Bird Game, Modified Prisoner's Dilemma.
  const std::array<Pinned, 3> pinned{{{20, 3}, {20, 7}, {12, 7}}};
  ASSERT_EQ(instances.size(), pinned.size());

  // All three jobs in flight at once on the shared pool.
  std::vector<std::future<SolveReport>> futures;
  for (const game::BenchmarkInstance& inst : instances) {
    SolveRequest req(inst.game);
    req.backend = "hardware-sa";
    req.runs = kRuns;
    req.seed = kSeed;
    req.intervals = inst.intervals;
    req.sa.iterations = inst.sa_iterations;
    futures.push_back(SolverService::shared().submit(std::move(req)));
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const game::BenchmarkInstance& inst = instances[i];
    const SolveReport report = futures[i].get();
    std::vector<CandidateSolution> cands;
    for (const SolveSample& s : report.samples) cands.push_back({s.p, s.q});
    const SolverReport r = classify(
        inst.game, game::all_equilibria(inst.game), cands, 1e-9);
    EXPECT_EQ(r.runs, kRuns) << inst.game.name();
    EXPECT_EQ(r.successes(), pinned[i].successes) << inst.game.name();
    EXPECT_EQ(r.distinct_found(), pinned[i].distinct_found)
        << inst.game.name();
  }
}

}  // namespace
}  // namespace cnash::core

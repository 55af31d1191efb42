// Table 1 as a tier-1 contract: "hardware-sa" and both D-Wave proxies on the
// three paper instances (game::paper_benchmarks(), the paper's I and SA
// iteration counts) at 20 runs each, with the seeds
// bench_table1_success_rate uses. Success counts and distinct ground-truth
// equilibria found are exact: every run or read draws from keyed splits of
// its job's seed, so they are the same for any worker count and ISA. A
// refactor that silently shifts a solver's success rates fails here instead
// of only in the bench's printed table.
//
// The pinned numbers equal `bench_table1_success_rate 20`'s measured rows.

#include <gtest/gtest.h>

#include <array>
#include <future>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"
#include "util/rng.hpp"

namespace cnash::core {
namespace {

constexpr std::size_t kRuns = 20;
constexpr std::uint64_t kSeed = 0xDA11A5;  // bench_common's evaluate_instance

/// bench_common's per-backend seed derivation: the proxies get stream
/// families of their own, "hardware-sa" takes the root seed unchanged.
std::uint64_t mix_seed(std::uint64_t seed, const std::string& tag) {
  std::uint64_t state = seed;
  for (const unsigned char c : tag) {
    state ^= c;
    state = util::splitmix64(state);
  }
  return state;
}

struct Pinned {
  std::size_t successes;
  std::size_t distinct_found;
};

/// Runs `backend` on the three paper instances (all three jobs in flight at
/// once on the shared pool) and checks the exact counts, in instance order:
/// Battle of the Sexes, Bird Game, Modified Prisoner's Dilemma.
void expect_row(const std::string& backend, std::uint64_t seed,
                const std::array<Pinned, 3>& pinned) {
  const std::vector<game::BenchmarkInstance> instances =
      game::paper_benchmarks();
  ASSERT_EQ(instances.size(), pinned.size());

  std::vector<std::future<SolveReport>> futures;
  for (const game::BenchmarkInstance& inst : instances) {
    SolveRequest req(inst.game);
    req.backend = backend;
    req.runs = kRuns;
    req.seed = seed;
    req.intervals = inst.intervals;
    req.sa.iterations = inst.sa_iterations;
    req.nash_eps = 1e-9;
    futures.push_back(SolverService::shared().submit(std::move(req)));
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const game::BenchmarkInstance& inst = instances[i];
    const SolverReport r =
        tally(futures[i].get().samples, game::all_equilibria(inst.game));
    EXPECT_EQ(r.runs, kRuns) << backend << ": " << inst.game.name();
    EXPECT_EQ(r.successes(), pinned[i].successes)
        << backend << ": " << inst.game.name();
    EXPECT_EQ(r.distinct_found(), pinned[i].distinct_found)
        << backend << ": " << inst.game.name();
  }
}

TEST(Table1, CNashRowIsPinned) {
  expect_row("hardware-sa", kSeed, {{{20, 3}, {20, 7}, {12, 7}}});
}

TEST(Table1, DWave2000Q6RowIsPinned) {
  expect_row("dwave-2000q6", mix_seed(kSeed, "dwave-2000q6"),
             {{{19, 2}, {20, 2}, {0, 0}}});
}

TEST(Table1, DWaveAdvantage41RowIsPinned) {
  expect_row("dwave-advantage41", mix_seed(kSeed, "dwave-advantage41"),
             {{{18, 2}, {18, 2}, {0, 0}}});
}

}  // namespace
}  // namespace cnash::core

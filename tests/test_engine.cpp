// SolverEngine: service-pool dispatch with thread-count-invariant determinism.
// The contract under test (see engine.hpp): for a fixed seed, run(N) returns
// bit-identical SolveSample vectors for ANY thread cap, because every run
// derives its SA stream and evaluator instance from keyed RNG splits rather
// than from shared sequential state.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/solver.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"
#include "game/verify.hpp"

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

SolverEngine make_engine(bool hardware, std::size_t threads,
                         std::uint64_t seed, std::size_t iterations = 600) {
  const game::BimatrixGame g = game::bird_game();
  EngineOptions opts;
  opts.intervals = 12;
  opts.sa.iterations = iterations;
  opts.seed = seed;
  opts.threads = threads;
  std::shared_ptr<const EvaluatorFactory> factory;
  if (hardware) {
    factory = std::make_shared<HardwareEvaluatorFactory>(
        g, opts.intervals, TwoPhaseConfig{}, util::Rng(seed));
  } else {
    factory = std::make_shared<ExactEvaluatorFactory>(g);
  }
  return SolverEngine(std::move(factory), opts);
}

TEST(SolverEngine, ThreadCountInvariantExactBackend) {
  const auto baseline = fingerprint(make_engine(false, 1, 0xABCD).run(24));
  for (const std::size_t threads : {2u, 8u}) {
    auto engine = make_engine(false, threads, 0xABCD);
    EXPECT_EQ(fingerprint(engine.run(24)), baseline)
        << "threads=" << threads;
  }
}

TEST(SolverEngine, ThreadCountInvariantHardwareBackend) {
  // The strong version of the contract: even with per-instance device
  // variability and per-read noise, outcomes are scheduling-independent.
  const auto baseline = fingerprint(make_engine(true, 1, 0xBEEF).run(16));
  for (const std::size_t threads : {2u, 8u}) {
    auto engine = make_engine(true, threads, 0xBEEF);
    EXPECT_EQ(fingerprint(engine.run(16)), baseline)
        << "threads=" << threads;
  }
}

TEST(SolverEngine, BatchesContinueTheRunSequence) {
  auto once = make_engine(false, 1, 77);
  auto split = make_engine(false, 4, 77);
  const auto all = once.run(10);
  auto head = split.run(4);
  const auto tail = split.run(6);
  head.insert(head.end(), tail.begin(), tail.end());
  EXPECT_EQ(fingerprint(head), fingerprint(all));
}

TEST(SolverEngine, RewindReplaysRunZero) {
  auto engine = make_engine(false, 2, 31);
  const auto first = engine.run(5);
  engine.rewind();
  const auto replay = engine.run(5);
  EXPECT_EQ(fingerprint(first), fingerprint(replay));
}

TEST(SolverEngine, DifferentSeedsProduceDifferentRuns) {
  auto a = make_engine(false, 2, 1);
  auto b = make_engine(false, 2, 2);
  EXPECT_NE(fingerprint(a.run(8)), fingerprint(b.run(8)));
}

TEST(SolverEngine, ReportBestNeverWorseThanFinal) {
  // Same seed => same per-run trajectories, so best <= final run by run.
  auto final_engine = make_engine(false, 4, 555);
  EngineOptions opts = final_engine.options();
  opts.report_best = true;
  SolverEngine best(std::make_shared<ExactEvaluatorFactory>(game::bird_game()),
                    opts);
  const auto of = final_engine.run(10);
  const auto ob = best.run(10);
  for (std::size_t i = 0; i < of.size(); ++i)
    EXPECT_LE(ob[i].objective, of[i].objective + 1e-12);
}

TEST(SolverEngine, ZeroRunsIsEmpty) {
  auto engine = make_engine(false, 4, 99);
  EXPECT_TRUE(engine.run(0).empty());
}

TEST(SolverEngine, ParallelRunsStillSolve) {
  // Quality survives parallel dispatch: most runs land on equilibria.
  auto engine = make_engine(false, 8, 4321, /*iterations=*/4000);
  const auto outcomes = engine.run(24);
  const auto g = game::bird_game();
  int nash = 0;
  for (const auto& o : outcomes)
    if (game::is_nash_equilibrium(g, o.p, o.q, 1e-9)) ++nash;
  EXPECT_GE(nash, 16);
}

// ---- Facade: CNashConfig::seed reproducibility across thread counts --------

TEST(SolverFacade, SameSeedSameOutcomesAcrossThreadCounts) {
  // Documented CNashConfig contract: `seed` fully determines run outcomes;
  // `threads` (1, 2, 8) only changes wall-clock, never results.
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    CNashConfig cfg;
    cfg.use_hardware = true;
    cfg.sa.iterations = 400;
    cfg.seed = 20240613;
    cfg.threads = threads;
    CNashSolver solver(game::battle_of_sexes(), cfg);
    const auto fp = fingerprint(solver.run(12));
    if (baseline.empty())
      baseline = fp;
    else
      EXPECT_EQ(fp, baseline) << "threads=" << threads;
  }
}

TEST(SolverFacade, ProbeEvaluatorDoesNotPerturbRuns) {
  CNashConfig cfg;
  cfg.sa.iterations = 300;
  cfg.seed = 808;
  cfg.threads = 2;
  CNashSolver with_probe(game::battle_of_sexes(), cfg);
  ASSERT_NE(with_probe.hardware(), nullptr);
  // Inspect the probe before running; run outcomes must not shift.
  (void)with_probe.hardware()->chip_m().mapping().geometry();
  CNashSolver untouched(game::battle_of_sexes(), cfg);
  EXPECT_EQ(fingerprint(with_probe.run(6)), fingerprint(untouched.run(6)));
}

}  // namespace
}  // namespace cnash::core

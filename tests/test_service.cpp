// SolverService: the asynchronous multi-game job queue over one shared worker
// pool. Contracts under test (see service.hpp):
//   * every registered backend solves the same game through submit();
//   * reports are bit-identical for any pool size (1/2/8), any per-job
//     parallelism cap and any submission interleaving, with jobs submitted
//     concurrently (keyed per-unit RNG streams — wall_clock_s excluded);
//   * concurrent submissions from many threads are safe (TSan-exercised in
//     CI) and still deterministic;
//   * unknown backend names reject via the future, other jobs unaffected.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/service.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "util/rng.hpp"

namespace cnash::core {
namespace {

void append_bits(std::string& fp, double v) {
  const char* bytes = reinterpret_cast<const char*>(&v);
  fp.append(bytes, sizeof(v));
}

/// Byte-level fingerprint of everything the determinism guarantee covers —
/// every report field except the measured wall clock.
std::string fingerprint(const SolveReport& r) {
  std::string fp = r.backend + '|' + r.game_name + '|';
  fp += std::to_string(r.nash_count) + ',' + std::to_string(r.valid_count);
  append_bits(fp, r.best_objective);
  append_bits(fp, r.modeled_time_s);
  for (const SolveSample& s : r.samples) {
    fp += s.key();
    fp += s.valid ? 'v' : '-';
    fp += s.is_nash ? 'n' : '-';
    append_bits(fp, s.objective);
    append_bits(fp, s.regret);
    for (double x : s.p) append_bits(fp, x);
    for (double x : s.q) append_bits(fp, x);
    fp += '\n';
  }
  return fp;
}

SolveRequest sa_request(const game::BimatrixGame& g, const std::string& backend,
                        std::size_t runs, std::uint64_t seed,
                        std::size_t iterations = 400) {
  SolveRequest req(g);
  req.backend = backend;
  req.runs = runs;
  req.seed = seed;
  req.sa.iterations = iterations;
  return req;
}

TEST(SolverService, AllRegisteredBackendsSolveTheSameGameThroughSubmit) {
  const auto names = SolverRegistry::global().names();
  ASSERT_EQ(names.size(), 8u);
  SolverService service(ServiceOptions{4});
  const game::BimatrixGame g = game::battle_of_sexes();

  std::vector<std::future<SolveReport>> futures;
  for (const std::string& name : names)
    futures.push_back(
        service.submit(sa_request(g, name, /*runs=*/40, 2024, 3000)));

  for (std::size_t i = 0; i < names.size(); ++i) {
    const SolveReport report = futures[i].get();
    EXPECT_EQ(report.backend, names[i]);
    EXPECT_EQ(report.game_name, g.name());
    ASSERT_FALSE(report.samples.empty()) << names[i];
    // Every family finds at least one verified equilibrium of this game.
    EXPECT_GE(report.nash_count, 1u) << names[i];
    EXPECT_GT(report.nash_rate(), 0.0) << names[i];
    for (const SolveSample& s : report.samples) {
      EXPECT_EQ(s.p.size(), g.num_actions1()) << names[i];
      EXPECT_EQ(s.q.size(), g.num_actions2()) << names[i];
    }
  }
}

TEST(SolverService, BitIdenticalReportsForAnyThreadCountAndInterleaving) {
  // The acceptance contract: two (here three) jobs submitted concurrently,
  // pools of 1/2/8 workers, reports byte-identical to the single-threaded
  // baseline — and identical again when the submission order is reversed.
  const SolveRequest job_a =
      sa_request(game::bird_game(), "hardware-sa", 8, 0xA11CE);
  const SolveRequest job_b =
      sa_request(game::battle_of_sexes(), "exact-sa", 8, 0xB0B);
  SolveRequest job_c =
      sa_request(game::battle_of_sexes(), "dwave-advantage41", 12, 0xCAFE);

  std::vector<std::string> baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SolverService service(ServiceOptions{threads});
    auto fa = service.submit(job_a);
    auto fb = service.submit(job_b);
    auto fc = service.submit(job_c);
    std::vector<std::string> fps{fingerprint(fa.get()), fingerprint(fb.get()),
                                 fingerprint(fc.get())};
    if (baseline.empty()) {
      baseline = fps;
    } else {
      EXPECT_EQ(fps, baseline) << "threads=" << threads;
    }
  }

  SolverService reversed(ServiceOptions{3});
  auto fc = reversed.submit(job_c);
  auto fb = reversed.submit(job_b);
  auto fa = reversed.submit(job_a);
  EXPECT_EQ(fingerprint(fa.get()), baseline[0]);
  EXPECT_EQ(fingerprint(fb.get()), baseline[1]);
  EXPECT_EQ(fingerprint(fc.get()), baseline[2]);
}

TEST(SolverService, ChipsProgrammedOnGeneratorLanesMatchAcrossPools) {
  // A 16-action integer game is large enough for the crossbar sampler's
  // generator lanes. One run per unit, so four workers program chips at
  // once; they must give the one-worker report (the tsan job runs this).
  util::Rng game_rng(1616);
  const game::BimatrixGame g = game::random_integer_game(16, 16, game_rng);
  for (const char* backend : {"hardware-sa", "hardware-sa-tiled"}) {
    SolveRequest req = sa_request(g, backend, /*runs=*/8, 0x1616, 200);
    req.sa.batch_lanes = 1;
    const std::string one =
        fingerprint(SolverService(ServiceOptions{1}).solve(req));
    EXPECT_EQ(fingerprint(SolverService(ServiceOptions{4}).solve(req)), one)
        << backend;
  }
}

TEST(SolverService, PerJobParallelismCapNeverChangesResults) {
  SolveRequest req = sa_request(game::bird_game(), "hardware-sa", 6, 99);
  SolverService service(ServiceOptions{4});
  const std::string uncapped = fingerprint(service.solve(req));
  for (const std::size_t cap : {1u, 2u, 3u}) {
    req.max_parallelism = cap;
    EXPECT_EQ(fingerprint(service.solve(req)), uncapped) << "cap=" << cap;
  }
}

TEST(SolverService, ConcurrentSubmissionFromManyThreadsIsDeterministic) {
  // The TSan-exercised case: four submitter threads race jobs into one
  // service; every job's report must equal its synchronous reference.
  SolverService service(ServiceOptions{4});
  const game::BimatrixGame g = game::battle_of_sexes();
  constexpr std::size_t kThreads = 4, kJobsPerThread = 3;

  std::vector<std::string> expected(kThreads * kJobsPerThread);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const SolveRequest req = sa_request(g, "exact-sa", 4, 1000 + i, 200);
    expected[i] = fingerprint(SolverRegistry::global().at("exact-sa").solve(req));
  }

  std::vector<std::string> got(expected.size());
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (std::size_t j = 0; j < kJobsPerThread; ++j) {
        const std::size_t i = t * kJobsPerThread + j;
        got[i] = fingerprint(
            service.solve(sa_request(g, "exact-sa", 4, 1000 + i, 200)));
      }
    });
  for (std::thread& t : submitters) t.join();
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "job " << i;
}

TEST(SolverService, UnknownBackendRejectsViaFuture) {
  SolverService service(ServiceOptions{1});
  auto future = service.submit(
      sa_request(game::battle_of_sexes(), "quantum-oracle", 1, 1));
  try {
    future.get();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the registered keys so callers can self-correct.
    EXPECT_NE(std::string(e.what()).find("hardware-sa"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("quantum-oracle"), std::string::npos);
  }
  // The service keeps serving after a rejected submission.
  EXPECT_GE(
      service.solve(sa_request(game::battle_of_sexes(), "exact-sa", 2, 7, 200))
          .samples.size(),
      2u);
}

TEST(SolverService, OutOfRangeRunCountsRejectAtSubmitTime) {
  // runs == 0 and runs above kMaxRuns resolve the future immediately with a
  // clear std::invalid_argument instead of surfacing from a worker thread.
  // 2^53 is the largest count the wire carries; a worker sizing the job's
  // unit slots from it would exhaust memory.
  SolverService service(ServiceOptions{2});
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "runs == 0"}, {std::size_t{1} << 53, "runs must be <="}};
  for (const auto& [runs, message] : cases) {
    auto future = service.submit(
        sa_request(game::battle_of_sexes(), "hardware-sa", runs, 1));
    try {
      future.get();
      FAIL() << "expected std::invalid_argument for runs = " << runs;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos);
    }
  }
  // The pool is unaffected: a valid job still solves.
  const SolveReport ok =
      service.solve(sa_request(game::battle_of_sexes(), "exact-sa", 4, 7));
  EXPECT_EQ(ok.samples.size(), 4u);
}

TEST(SolverService, ZeroIntervalsRejectAtSubmitTime) {
  // An exact-sa run on a grid with I = 0 never ends, so the request must
  // resolve to std::invalid_argument before any unit reaches a worker.
  SolverService service(ServiceOptions{1});
  SolveRequest req = sa_request(game::battle_of_sexes(), "exact-sa", 1, 1, 5);
  req.intervals = 0;
  auto future = service.submit(std::move(req));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  try {
    future.get();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("intervals == 0"), std::string::npos);
  }
}

TEST(SolverService, NonFinitePayoffsRejectAtSubmitTime) {
  la::Matrix m{{1.0, 0.0}, {0.0, std::numeric_limits<double>::quiet_NaN()}};
  const game::BimatrixGame bad(m, m, "nan-game");
  SolverService service(ServiceOptions{1});
  auto future = service.submit(sa_request(bad, "exact-sa", 2, 1));
  try {
    future.get();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
}

TEST(SolverBackendValidation, SynchronousSolveRejectsZeroRuns) {
  SolveRequest req = sa_request(game::battle_of_sexes(), "exact-sa", 0, 1);
  EXPECT_THROW(SolverRegistry::global().at("exact-sa").solve(req),
               std::invalid_argument);
}

TEST(SolverService, ExactBackendsVerifyAndDeduplicate) {
  SolverService service(ServiceOptions{4});
  const game::BimatrixGame g = game::bird_game();

  const SolveReport se = service.solve(sa_request(g, "support-enum", 1, 0));
  EXPECT_EQ(se.samples.size(), 7u);  // 3 pure + 3 pairwise + 1 full support
  for (const SolveSample& s : se.samples) {
    EXPECT_TRUE(s.is_nash);
    EXPECT_LE(s.regret, 1e-7);
    EXPECT_FALSE(s.profile.has_value());
  }

  const SolveReport lh = service.solve(sa_request(g, "lemke-howson", 1, 0));
  ASSERT_GE(lh.samples.size(), 1u);
  for (const SolveSample& s : lh.samples) EXPECT_TRUE(s.is_nash);
  for (std::size_t i = 0; i < lh.samples.size(); ++i)
    for (std::size_t j = i + 1; j < lh.samples.size(); ++j)
      EXPECT_NE(lh.samples[i].key(), lh.samples[j].key());
}

TEST(SolverService, DrainFinishesQueuedWorkAndRejectsNewSubmissions) {
  // Satellite contract: drain() stops accepting, finishes every queued job
  // (all futures resolved when it returns) — the graceful-shutdown hook the
  // serve/ gateway relies on. More jobs than workers so some are still
  // queued when the drain starts.
  SolverService service(ServiceOptions{2});
  const game::BimatrixGame g = game::battle_of_sexes();
  std::vector<std::future<SolveReport>> futures;
  for (std::size_t i = 0; i < 6; ++i)
    futures.push_back(
        service.submit(sa_request(g, "exact-sa", 4, 100 + i, 400)));

  EXPECT_FALSE(service.draining());
  service.drain();
  EXPECT_TRUE(service.draining());
  EXPECT_EQ(service.pending_jobs(), 0u);

  for (auto& future : futures) {
    // Resolved already — get() must not block on new work.
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get().samples.size(), 4u);
  }

  // Post-drain submissions are rejected via the future, not accepted.
  auto late = service.submit(sa_request(g, "exact-sa", 2, 1, 200));
  EXPECT_THROW(late.get(), std::runtime_error);

  // drain() is idempotent.
  service.drain();
}

TEST(SolverService, QueueDepthTracksQueuedAndInFlightUnits) {
  SolverService service(ServiceOptions{1});
  const SolverService::QueueDepth idle = service.queue_depth();
  EXPECT_EQ(idle.jobs, 0u);
  EXPECT_EQ(idle.queued_units, 0u);
  EXPECT_EQ(idle.in_flight_units, 0u);

  // Three jobs on a single worker: right after submit at least two must
  // still be queued (the worker can hold only one unit at a time).
  std::vector<std::future<SolveReport>> futures;
  for (std::size_t i = 0; i < 3; ++i)
    futures.push_back(
        service.submit(sa_request(game::battle_of_sexes(), "exact-sa", 3,
                                  7 + i, 2000)));
  const SolverService::QueueDepth busy = service.queue_depth();
  EXPECT_GE(busy.jobs, 2u);
  EXPECT_GE(busy.queued_units + busy.in_flight_units, 2u);
  EXPECT_LE(busy.in_flight_units, 1u);  // one worker

  for (auto& future : futures) future.get();
  const SolverService::QueueDepth done = service.queue_depth();
  EXPECT_EQ(done.jobs, 0u);
  EXPECT_EQ(done.queued_units, 0u);
  EXPECT_EQ(done.in_flight_units, 0u);
}

TEST(SolverService, ReportsCarryArchitectureTiming) {
  SolverService service(ServiceOptions{2});
  const game::BimatrixGame g = game::battle_of_sexes();

  const SolveReport hw =
      service.solve(sa_request(g, "hardware-sa", 3, 5, 500));
  EXPECT_GT(hw.modeled_time_s, 0.0);
  EXPECT_GT(hw.wall_clock_s, 0.0);

  const SolveReport dw = service.solve(sa_request(g, "dwave-2000q6", 5, 5));
  EXPECT_GT(dw.modeled_time_s, 0.0);

  const SolveReport exact = service.solve(sa_request(g, "exact-sa", 3, 5, 500));
  EXPECT_EQ(exact.modeled_time_s, 0.0);  // pure software, no hardware model
}

}  // namespace
}  // namespace cnash::core

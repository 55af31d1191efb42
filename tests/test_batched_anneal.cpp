#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/anneal.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"

namespace cnash::core {
namespace {

// The per-run key scheme shared by SaPreparedJob and these tests: run r's
// evaluator instance key is 2r, its SA stream key 2r + 1.
constexpr std::uint64_t instance_key(std::uint64_t run) { return 2 * run; }
constexpr std::uint64_t stream_key(std::uint64_t run) { return 2 * run + 1; }

// An independent-mode SaPreparedJob's units, read in unit order, must
// reproduce run r as a standalone simulated_annealing() call on instance key
// 2r and stream key 2r + 1, however batch_lanes groups the runs into units.
// Bitwise: even the floating-point objectives must match exactly.
void check_units_follow_run_keys(
    const std::shared_ptr<const EvaluatorFactory>& factory) {
  const std::uint32_t intervals = 12;
  const std::uint64_t seed = 0xBA7C;
  const std::size_t runs = 10;
  SaOptions opts;
  opts.iterations = 600;

  std::vector<SaRunResult> ref;
  const util::Rng root(seed);
  for (std::size_t r = 0; r < runs; ++r) {
    auto obj = factory->create(instance_key(r));
    util::Rng rng = root.split(stream_key(r));
    ref.push_back(simulated_annealing(*obj, intervals, opts, rng));
  }

  for (const std::size_t lanes : {1, 3, 8}) {
    opts.batch_lanes = lanes;
    const SaPreparedJob job(factory, intervals, opts, /*report_best=*/false,
                            seed, runs, /*nash_eps=*/1e-7);
    ASSERT_EQ(job.num_units(), (runs + lanes - 1) / lanes);
    std::vector<SolveSample> samples;
    for (std::size_t u = 0; u < job.num_units(); ++u)
      for (SolveSample& s : job.run_unit(u)) samples.push_back(std::move(s));
    ASSERT_EQ(samples.size(), runs) << "batch_lanes " << lanes;
    for (std::size_t r = 0; r < runs; ++r) {
      EXPECT_EQ(samples[r].profile, ref[r].final_profile)
          << "batch_lanes " << lanes << ", run " << r;
      EXPECT_EQ(samples[r].objective, ref[r].final_objective)
          << "batch_lanes " << lanes << ", run " << r;
    }
  }
}

TEST(BatchedAnneal, ExactUnitsFollowRunKeys) {
  check_units_follow_run_keys(
      std::make_shared<ExactEvaluatorFactory>(game::bird_game()));
}

TEST(BatchedAnneal, HardwareUnitsFollowRunKeys) {
  check_units_follow_run_keys(std::make_shared<HardwareEvaluatorFactory>(
      game::bird_game(), 12, TwoPhaseConfig{}, util::Rng(0xFE0)));
}

TEST(BatchedAnneal, ExactInstancesShareOnePayoffBlock) {
  const ExactEvaluatorFactory factory(game::battle_of_sexes());
  const auto a = factory.create(instance_key(0));
  const auto b = factory.create(instance_key(1));
  EXPECT_EQ(&a->game(), &b->game());
  EXPECT_EQ(&a->game(), &factory.game());
}

void expect_same_report(const SolveReport& a, const SolveReport& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  EXPECT_EQ(a.nash_count, b.nash_count);
  EXPECT_EQ(a.valid_count, b.valid_count);
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const SolveSample& sa = a.samples[i];
    const SolveSample& sb = b.samples[i];
    EXPECT_EQ(sa.objective, sb.objective) << "sample " << i;
    EXPECT_EQ(sa.profile, sb.profile) << "sample " << i;
    EXPECT_EQ(sa.is_nash, sb.is_nash) << "sample " << i;
    ASSERT_EQ(sa.p.size(), sb.p.size());
    for (std::size_t j = 0; j < sa.p.size(); ++j)
      EXPECT_EQ(sa.p[j], sb.p[j]) << "sample " << i;
    for (std::size_t j = 0; j < sa.q.size(); ++j)
      EXPECT_EQ(sa.q[j], sb.q[j]) << "sample " << i;
  }
}

SolveRequest base_request(const char* backend) {
  SolveRequest req(game::bird_game());
  req.backend = backend;
  req.runs = 10;
  req.seed = 0x5EED;
  req.sa.iterations = 500;
  return req;
}

// batch_lanes only groups runs into work units: any value produces the
// byte-identical report, through the full backend path.
TEST(BatchedAnneal, BackendReportInvariantInBatchLanes) {
  for (const char* backend : {"exact-sa", "hardware-sa"}) {
    SolveRequest req = base_request(backend);
    req.sa.batch_lanes = 1;
    const SolveReport unbatched =
        SolverRegistry::global().at(backend).solve(req);
    for (const std::size_t k : {2, 8, 16}) {
      req.sa.batch_lanes = k;
      const SolveReport batched =
          SolverRegistry::global().at(backend).solve(req);
      expect_same_report(unbatched, batched);
    }
  }
}

// SIMD dispatch must be invisible: a solve at every ISA level reproduces the
// scalar-forced solve byte for byte. Both games program their chips through
// the crossbar sampler's generator lanes: the bird game's nine blocks give
// most lanes one block, the 16-action integer game gives each lane 32.
TEST(BatchedAnneal, BackendReportInvariantUnderForcedScalar) {
  util::Rng game_rng(16);
  SolveRequest wide(game::random_integer_game(16, 16, game_rng));
  wide.runs = 2;
  wide.seed = 0x5EED16;
  wide.sa.iterations = 300;
  std::vector<SolveRequest> requests;
  for (const char* backend : {"exact-sa", "hardware-sa", "hardware-sa-tiled"}) {
    requests.push_back(base_request(backend));
    if (std::string(backend) != "exact-sa") {
      wide.backend = backend;
      requests.push_back(wide);
    }
  }
  for (const SolveRequest& req : requests) {
    const SolverBackend& backend = SolverRegistry::global().at(req.backend);
    ASSERT_TRUE(simd::force_level(simd::IsaLevel::kScalar));
    const SolveReport scalar = backend.solve(req);
    for (const simd::IsaLevel level :
         {simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512}) {
      if (!simd::force_level(level)) continue;
      SCOPED_TRACE(req.backend + " at " + simd::level_name(level));
      expect_same_report(scalar, backend.solve(req));
    }
  }
  ASSERT_TRUE(simd::force_level(simd::max_supported_level()));
}

TEST(BatchedAnneal, ReplicaExchangeIsDeterministic) {
  SolveRequest req = base_request("exact-sa");
  req.sa.mode = SaMode::kReplicaExchange;
  req.runs = 4;  // 4 ensembles
  const SolveReport a = SolverRegistry::global().at("exact-sa").solve(req);
  const SolveReport b = SolverRegistry::global().at("exact-sa").solve(req);
  ASSERT_EQ(a.samples.size(), 4u);  // one winner sample per ensemble
  expect_same_report(a, b);
}

// The scenario parallel tempering exists for: a coordination game whose pure
// equilibria sit behind high barriers. The hot replicas keep tunnelling, the
// cold replica polishes — plain SA at this budget solves (almost) nothing
// (see bench_fig10_time_to_solution --re for the full iterations ladder).
TEST(BatchedAnneal, ReplicaExchangeSolvesCoordinationGame) {
  SolveRequest req(game::coordination(16));
  req.backend = "exact-sa";
  req.runs = 6;
  req.seed = 0xC00D;
  req.intervals = 4;
  req.sa.iterations = 8000;
  req.sa.mode = SaMode::kReplicaExchange;
  req.sa.replicas = 8;
  const SolveReport rep = SolverRegistry::global().at("exact-sa").solve(req);
  ASSERT_EQ(rep.samples.size(), 6u);
  EXPECT_GE(rep.nash_count, 4u);
  EXPECT_EQ(rep.valid_count, 6u);
}

TEST(BatchedAnneal, ReplicaExchangeChangesResultsVsIndependent) {
  SolveRequest req = base_request("exact-sa");
  const SolveReport ind = SolverRegistry::global().at("exact-sa").solve(req);
  req.sa.mode = SaMode::kReplicaExchange;
  const SolveReport re = SolverRegistry::global().at("exact-sa").solve(req);
  // One sample per ensemble vs one per run — same count, different law.
  EXPECT_EQ(ind.samples.size(), req.runs);
  EXPECT_EQ(re.samples.size(), req.runs);
  bool any_diff = false;
  for (std::size_t i = 0; i < re.samples.size(); ++i)
    if (ind.samples[i].key() != re.samples[i].key() ||
        ind.samples[i].objective != re.samples[i].objective)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(BatchedAnneal, ReplicaExchangeRequestValidation) {
  SolveRequest req = base_request("exact-sa");
  req.sa.mode = SaMode::kReplicaExchange;
  req.sa.replicas = 1;
  EXPECT_THROW(validate_request(req), std::invalid_argument);
  req.sa.replicas = 8;
  req.sa.exchange_interval = 0;
  EXPECT_THROW(validate_request(req), std::invalid_argument);
  req.sa.exchange_interval = 16;
  req.sa.ladder_ratio = 1.0;
  EXPECT_THROW(validate_request(req), std::invalid_argument);
  req.sa.ladder_ratio = 1.5;
  EXPECT_NO_THROW(validate_request(req));
}

// The direct replica-exchange driver: swap moves must preserve lane
// bookkeeping invariants and respond to the ladder.
TEST(BatchedAnneal, ReplicaExchangeDriverRunsAllReplicas) {
  ExactEvaluatorFactory factory(game::bird_game());
  const std::size_t r = 4;
  std::vector<std::unique_ptr<ObjectiveEvaluator>> replicas;
  std::vector<util::Rng> rngs;
  const util::Rng root(0x4E);
  for (std::size_t l = 0; l < r; ++l) {
    replicas.push_back(factory.create(instance_key(l)));
    rngs.push_back(root.split(stream_key(l)));
  }
  util::Rng swap_rng = root.split(stream_key(r) + 1);
  SaOptions opts;
  opts.iterations = 400;
  opts.replicas = r;
  const auto res = simulated_annealing_replica_exchange(replicas, 12, opts,
                                                        rngs.data(), swap_rng);
  ASSERT_EQ(res.size(), r);
  for (const SaRunResult& lane : res) {
    EXPECT_EQ(lane.iterations, opts.iterations);
    EXPECT_LE(lane.best_objective, lane.final_objective + 1e-12);
  }
}

}  // namespace
}  // namespace cnash::core

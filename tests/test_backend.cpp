// SolverBackend registry: the string-keyed normalisation of all solver
// families onto one SolveRequest → SolveReport contract — registry lookup
// semantics, per-sample ε-Nash verification, and equivalence between the
// synchronous solve() path and the service path.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/service.hpp"
#include "core/timing.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"

namespace cnash::core {
namespace {

void append_bits(std::string& fp, double v) {
  const char* bytes = reinterpret_cast<const char*>(&v);
  fp.append(bytes, sizeof(v));
}

std::string samples_fingerprint(const std::vector<SolveSample>& samples) {
  std::string fp;
  for (const SolveSample& s : samples) {
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

TEST(SolverRegistry, GlobalRegistersTheEightBackends) {
  const std::vector<std::string> expected{
      "hardware-sa",  "hardware-sa-tiled", "exact-sa",    "dwave-2000q6",
      "dwave-advantage41", "lemke-howson", "support-enum", "resilient"};
  EXPECT_EQ(SolverRegistry::global().names(), expected);
  for (const std::string& name : expected) {
    const SolverBackend* backend = SolverRegistry::global().find(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
    EXPECT_FALSE(backend->describe().empty()) << name;
  }
}

TEST(SolverRegistry, UnknownKeyLookups) {
  EXPECT_EQ(SolverRegistry::global().find("nope"), nullptr);
  try {
    SolverRegistry::global().at("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("support-enum"), std::string::npos);
  }
}

TEST(SolverRegistry, RejectsDuplicateKeys) {
  class Dummy final : public SolverBackend {
   public:
    const std::string& name() const override { return name_; }
    std::string describe() const override { return "dummy"; }
    std::unique_ptr<PreparedJob> prepare(const SolveRequest&) const override {
      return nullptr;
    }

   private:
    std::string name_ = "dummy";
  };
  SolverRegistry registry;
  registry.add(std::make_unique<Dummy>());
  EXPECT_THROW(registry.add(std::make_unique<Dummy>()),
               std::invalid_argument);
}

TEST(SolverBackend, SynchronousSolveMatchesServiceSubmission) {
  SolveRequest req(game::bird_game());
  req.backend = "exact-sa";
  req.runs = 6;
  req.seed = 4242;
  req.sa.iterations = 300;
  const SolveReport direct = SolverRegistry::global().at("exact-sa").solve(req);
  SolverService service(ServiceOptions{3});
  const SolveReport via_service = service.solve(req);
  EXPECT_EQ(samples_fingerprint(direct.samples),
            samples_fingerprint(via_service.samples));
  EXPECT_EQ(direct.nash_count, via_service.nash_count);
  EXPECT_EQ(direct.best_objective, via_service.best_objective);
}

TEST(SolverBackend, BatchLanesNearSizeMaxStillRunsEveryRun) {
  // The unit count is a ceil division over batch_lanes; (runs + k - 1) / k
  // wrapped to zero units at k = SIZE_MAX, and both paths returned no
  // samples without marking the report degraded.
  SolveRequest req(game::bird_game());
  req.backend = "exact-sa";
  req.runs = 4;
  req.seed = 4243;
  req.sa.iterations = 300;
  req.sa.batch_lanes = 1;
  const std::string one_per_unit = samples_fingerprint(
      SolverRegistry::global().at("exact-sa").solve(req).samples);
  req.sa.batch_lanes = std::numeric_limits<std::size_t>::max();
  SolverService service(ServiceOptions{2});
  for (const SolveReport& report :
       {SolverRegistry::global().at("exact-sa").solve(req),
        service.solve(req)}) {
    EXPECT_EQ(report.samples.size(), 4u);
    EXPECT_EQ(report.units_total, 1u);
    EXPECT_EQ(report.units_completed, 1u);
    EXPECT_FALSE(report.degraded);
    EXPECT_EQ(samples_fingerprint(report.samples), one_per_unit);
  }
}

TEST(SolverBackend, TiledBackendByteReproducesMonolithicOnSingleTileGames) {
  // Acceptance contract: when the whole game fits one tile, the
  // "hardware-sa-tiled" report is byte-identical to "hardware-sa" (same
  // seeds, full non-idealities on) — samples, counts and objectives; only
  // the backend label and the latency model differ.
  SolveRequest req(game::bird_game());
  req.backend = "hardware-sa";
  req.runs = 8;
  req.seed = 0x717ED;
  req.sa.iterations = 600;
  const SolveReport mono = SolverRegistry::global().at("hardware-sa").solve(req);

  req.backend = "hardware-sa-tiled";
  req.chip.tile_rows = 1024;  // whole array in one tile
  req.chip.tile_cols = 4096;
  const SolveReport tiled =
      SolverRegistry::global().at("hardware-sa-tiled").solve(req);

  EXPECT_EQ(samples_fingerprint(mono.samples),
            samples_fingerprint(tiled.samples));
  EXPECT_EQ(mono.nash_count, tiled.nash_count);
  EXPECT_EQ(mono.valid_count, tiled.valid_count);
  EXPECT_EQ(mono.best_objective, tiled.best_objective);
  EXPECT_EQ(tiled.backend, "hardware-sa-tiled");
  EXPECT_GT(tiled.modeled_time_s, 0.0);
}

TEST(SolverBackend, TiledBackendSolvesGamesBeyondTheMonolithicBenchRange) {
  // The tiled backend lifts the solvable range: a 12-action (per player)
  // sharded game solves end-to-end through the registry with a real tile
  // grid (several tiles per array) and still finds equilibria.
  util::Rng rng(0x60D);
  SolveRequest req(game::random_dominance_solvable_game(12, 12, rng));
  req.backend = "hardware-sa-tiled";
  req.runs = 6;
  req.seed = 99;
  req.intervals = 8;
  req.sa.iterations = 4000;
  req.chip.tile_rows = 16;
  req.chip.tile_cols = 512;
  const SolveReport report =
      SolverRegistry::global().at("hardware-sa-tiled").solve(req);
  EXPECT_EQ(report.samples.size(), 6u);
  EXPECT_GE(report.nash_count, 1u);
}

TEST(SolverBackend, SamplesCarryEpsilonNashVerification) {
  SolveRequest req(game::battle_of_sexes());
  req.backend = "exact-sa";
  req.runs = 20;
  req.seed = 77;
  req.sa.iterations = 3000;
  req.nash_eps = 1e-7;
  const SolveReport report = SolverRegistry::global().at("exact-sa").solve(req);
  std::size_t nash = 0;
  for (const SolveSample& s : report.samples) {
    ASSERT_TRUE(s.valid);
    ASSERT_TRUE(s.profile.has_value());
    EXPECT_EQ(s.is_nash, s.regret <= req.nash_eps);
    if (s.is_nash) ++nash;
  }
  EXPECT_EQ(report.nash_count, nash);
  EXPECT_GE(nash, 15u);  // most 3000-iteration runs land on an equilibrium
}

TEST(SolverBackend, DWaveModeledTimeMatchesTimingModel) {
  SolveRequest req(game::battle_of_sexes());
  req.backend = "dwave-advantage41";
  req.runs = 25;
  const SolveReport report =
      SolverRegistry::global().at("dwave-advantage41").solve(req);
  const DWaveTimingParams t = dwave_advantage41_timing();
  EXPECT_DOUBLE_EQ(report.modeled_time_s,
                   t.programming_s + t.per_sample_s * 25.0);
}

TEST(SolverBackend, InvalidDWaveReadsAreCountedNotDropped) {
  // The noisy Advantage proxy regularly emits one-hot-violating reads; they
  // must appear in the report as valid=false with NaN regret, never as NE.
  SolveRequest req(game::bird_game());
  req.backend = "dwave-advantage41";
  req.runs = 60;
  req.seed = 31337;
  const SolveReport report =
      SolverRegistry::global().at("dwave-advantage41").solve(req);
  EXPECT_EQ(report.samples.size(), 60u);
  EXPECT_LE(report.valid_count, report.samples.size());
  for (const SolveSample& s : report.samples) {
    if (s.valid) continue;
    EXPECT_FALSE(s.is_nash);
    EXPECT_TRUE(std::isnan(s.regret));
  }
}

TEST(SolveSampleKey, ProfileAndDistributionKeysAreStable) {
  SolveSample with_profile;
  with_profile.p = {1.0, 0.0};
  with_profile.q = {0.0, 1.0};
  with_profile.profile = game::QuantizedProfile{
      game::QuantizedStrategy::pure(2, 0, 12),
      game::QuantizedStrategy::pure(2, 1, 12)};
  EXPECT_EQ(with_profile.key(), with_profile.profile->key());

  SolveSample bare = with_profile;
  bare.profile.reset();
  SolveSample other = bare;
  other.q = {1.0, 0.0};
  EXPECT_EQ(bare.key(), SolveSample(bare).key());
  EXPECT_NE(bare.key(), other.key());
}

}  // namespace
}  // namespace cnash::core

// Golden reports of the hardware backends. Fixed requests through
// "hardware-sa", "hardware-sa-tiled" (a multi-tile grid and a 1×1 grid) and
// "resilient" with a hardware-sa primary are solved and rendered with
// report_to_json (wall_clock_s zeroed, the only scheduling-dependent field);
// the bytes must match tests/data/hardware_reports_golden.json exactly.
//
// The requests cover the shapes the hardware path special-cases: square and
// non-square games, multi-level cells, a fractional value_scale, the
// full-read path (incremental off), batch lanes, replica exchange,
// report_best, and a resilient job whose fault plan kills every tile (which
// hardware-sa ignores, so it reports zero fallbacks). Reports are
// deterministic for any worker count and ISA, so any byte change means the
// hardware model's results changed.
//
// To regenerate after an intentional change, run the test with
// CNASH_REGENERATE_GOLDEN=1 and review the diff.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/report_json.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cnash::core {
namespace {

struct GoldenCase {
  std::string name;
  SolveRequest request;
};

SolveRequest base_request(game::BimatrixGame g, const std::string& backend,
                          std::uint64_t seed) {
  SolveRequest req(std::move(g));
  req.backend = backend;
  req.runs = 4;
  req.seed = seed;
  req.intervals = 12;
  req.sa.iterations = 600;
  return req;
}

/// Integer game whose payoffs are all multiples of `step`.
game::BimatrixGame stepped_game(std::size_t n, std::size_t m, int hi,
                                double step, std::uint64_t seed,
                                const std::string& name) {
  util::Rng rng(seed);
  la::Matrix a(n, m), b(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      a(i, j) = step * rng.uniform_int(0, hi);
      b(i, j) = step * rng.uniform_int(0, hi);
    }
  return game::BimatrixGame(a, b, name);
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  auto add = [&](std::string name, SolveRequest req) {
    cases.push_back({std::move(name), std::move(req)});
  };

  add("hardware-sa/bird", base_request(game::bird_game(), "hardware-sa", 11));
  add("hardware-sa/battle-of-sexes",
      base_request(game::battle_of_sexes(), "hardware-sa", 12));
  add("hardware-sa/wide-3x7",
      base_request(stepped_game(3, 7, 3, 1.0, 101, "wide 3x7"), "hardware-sa",
                   13));
  add("hardware-sa/tall-7x3",
      base_request(stepped_game(7, 3, 3, 1.0, 102, "tall 7x3"), "hardware-sa",
                   14));
  {
    SolveRequest req = base_request(stepped_game(5, 5, 9, 1.0, 103, "mlc 5x5"),
                                    "hardware-sa", 15);
    req.hardware.levels_per_cell = 4;
    add("hardware-sa/levels-per-cell-4", std::move(req));
  }
  {
    // Payoffs in {0, 2, 4, 6}; value_scale 1.5 codes them as {0, 3, 6, 9}.
    SolveRequest req = base_request(
        stepped_game(4, 4, 3, 2.0, 104, "scaled 4x4"), "hardware-sa", 16);
    req.hardware.value_scale = 1.5;
    add("hardware-sa/value-scale-1.5", std::move(req));
  }
  {
    SolveRequest req =
        base_request(game::battle_of_sexes(), "hardware-sa", 17);
    req.hardware.incremental = false;
    add("hardware-sa/full-read", std::move(req));
  }
  {
    SolveRequest req = base_request(game::bird_game(), "hardware-sa", 18);
    req.runs = 6;
    req.sa.batch_lanes = 4;
    req.report_best = true;
    add("hardware-sa/lanes-4-report-best", std::move(req));
  }
  {
    SolveRequest req = base_request(game::coordination(4), "hardware-sa", 19);
    req.runs = 2;
    req.sa.mode = SaMode::kReplicaExchange;
    req.sa.replicas = 3;
    req.sa.exchange_interval = 8;
    add("hardware-sa/replica-exchange", std::move(req));
  }
  {
    util::Rng rng(105);
    SolveRequest req = base_request(
        game::random_integer_game(16, 16, rng, 0, 3), "hardware-sa", 20);
    req.runs = 2;
    req.sa.iterations = 300;
    add("hardware-sa/random-16", std::move(req));
  }
  {
    SolveRequest req = base_request(
        stepped_game(6, 5, 3, 1.0, 106, "tiled 6x5"), "hardware-sa-tiled", 21);
    req.intervals = 8;
    req.chip.tile_rows = 16;  // 2 element rows per tile
    req.chip.tile_cols = 48;  // 2 element columns per tile (t = 3)
    add("hardware-sa-tiled/multi-tile", std::move(req));
  }
  {
    SolveRequest req = base_request(
        stepped_game(6, 5, 3, 1.0, 106, "tiled 6x5"), "hardware-sa-tiled", 21);
    req.intervals = 8;
    req.chip.tile_rows = 1024;
    req.chip.tile_cols = 4096;
    add("hardware-sa-tiled/single-tile", std::move(req));
  }
  {
    SolveRequest req = base_request(game::bird_game(), "resilient", 22);
    req.resilient_primary = "hardware-sa";
    req.fault.seed = 9;
    req.fault.tile_failure_rate = 1.0;
    add("resilient/hardware-sa-all-tiles-failed", std::move(req));
  }
  return cases;
}

util::Json render_all() {
  util::Json root = util::Json::object();
  SolverService& service = SolverService::shared();
  for (GoldenCase& c : golden_cases()) {
    SolveReport report = service.submit(std::move(c.request)).get();
    report.wall_clock_s = 0.0;
    root.set(c.name, report_to_json(report));
  }
  return root;
}

TEST(HardwareGolden, ReportsMatchGoldenFile) {
  const std::string path = std::string(CNASH_SOURCE_DIR) +
                           "/tests/data/hardware_reports_golden.json";
  const util::Json rendered = render_all();
  if (std::getenv("CNASH_REGENERATE_GOLDEN")) {
    std::ofstream(path) << rendered.pretty() << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const util::Json golden = util::Json::parse(text.str());

  // Per case first, so a failure names the request that drifted...
  ASSERT_EQ(golden.size(), rendered.size());
  for (const auto& [name, report] : rendered.members()) {
    const util::Json* expected = golden.find(name);
    ASSERT_NE(expected, nullptr) << "golden file lacks case " << name;
    EXPECT_EQ(report.pretty(), expected->pretty()) << "case " << name;
  }
  // ...then the whole file byte for byte.
  EXPECT_EQ(rendered.pretty() + "\n", text.str());
}

TEST(HardwareGolden, ResilientWithHardwarePrimaryIgnoresTileFaults) {
  // hardware-sa ignores request.fault, so a plan that kills every tile
  // leaves the resilient job on its primary for every unit.
  for (GoldenCase& c : golden_cases()) {
    if (c.request.backend != "resilient") continue;
    const SolveReport report =
        SolverRegistry::global().at("resilient").solve(c.request);
    EXPECT_EQ(report.fallback_count, 0u) << c.name;
    EXPECT_EQ(report.samples.size(), c.request.runs) << c.name;
  }
}

}  // namespace
}  // namespace cnash::core

// The failure-containment layer (PR 7). Contracts under test:
//   * util::FaultPlan — deterministic keyed rolls: same (seed, scope, index)
//     fires identically everywhere, disabled plans draw no RNG and never
//     fire, for_instance() re-keys deterministically, CNASH_FAULT_* env
//     parsing;
//   * chip::TiledCrossbar — a disabled plan leaves the programmed array
//     byte-identical to a plan-free build; injected dead tiles read zero
//     current and are caught by the program-time read-back, which makes
//     TiledTwoPhaseEvaluator construction throw ChipFault;
//   * "resilient" meta-backend — with faults off it is sample-for-sample
//     bit-identical to its wrapped primary; with 100% tile faults every unit
//     falls back to exact-sa (fallback_count == runs) and the samples match a
//     pure exact-sa solve bit for bit;
//   * validate_request — the deadline / fault / resilient_primary knobs,
//     the run / replica caps, zero SA iterations and, on every hardware
//     path, games (or replica ensembles) the chip model cannot hold reject
//     bad requests at submit time;
//   * SolverService deadlines — anytime degradation: a deadline-bounded job
//     returns degraded=true with units accounting within deadline + one
//     unit's wall time, and a drained service rejects submissions with
//     ServiceDrainingError (not a generic internal error).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chip/tiled_crossbar.hpp"
#include "chip/tiled_two_phase.hpp"
#include "core/backend.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/random_games.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace cnash {
namespace {

using util::FaultPlan;
using Scope = util::FaultPlan::Scope;

bool same_bits(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  if (std::isnan(a) && std::isnan(b)) return true;
  return ba == bb;
}

/// Bitwise sample equality modulo the fallback flag (asserted separately).
void expect_samples_identical(const std::vector<core::SolveSample>& a,
                              const std::vector<core::SolveSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].p.size(), b[i].p.size()) << "sample " << i;
    for (std::size_t j = 0; j < a[i].p.size(); ++j)
      EXPECT_TRUE(same_bits(a[i].p[j], b[i].p[j])) << "sample " << i;
    ASSERT_EQ(a[i].q.size(), b[i].q.size()) << "sample " << i;
    for (std::size_t j = 0; j < a[i].q.size(); ++j)
      EXPECT_TRUE(same_bits(a[i].q[j], b[i].q[j])) << "sample " << i;
    EXPECT_TRUE(same_bits(a[i].objective, b[i].objective)) << "sample " << i;
    EXPECT_TRUE(same_bits(a[i].regret, b[i].regret)) << "sample " << i;
    EXPECT_EQ(a[i].valid, b[i].valid) << "sample " << i;
    EXPECT_EQ(a[i].is_nash, b[i].is_nash) << "sample " << i;
    EXPECT_EQ(a[i].profile.has_value(), b[i].profile.has_value())
        << "sample " << i;
    if (a[i].profile && b[i].profile) {
      EXPECT_EQ(*a[i].profile, *b[i].profile) << "sample " << i;
    }
  }
}

// ---- FaultPlan rolls ---------------------------------------------------------

TEST(FaultPlan, DisabledPlanNeverFires) {
  const FaultPlan plan;  // all rates zero
  EXPECT_FALSE(plan.solver_faults());
  EXPECT_FALSE(plan.server_faults());
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(plan.roll(Scope::kUnit, i, 0.0));
    EXPECT_FALSE(plan.roll(Scope::kTile, i, plan.tile_failure_rate));
  }
}

TEST(FaultPlan, RollsAreDeterministicPerSite) {
  FaultPlan plan;
  plan.seed = 42;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const bool first = plan.roll(Scope::kUnit, i, 0.3);
    // The same site fires identically on every evaluation — including from a
    // copy, which is how worker threads see the plan.
    const FaultPlan copy = plan;
    EXPECT_EQ(first, copy.roll(Scope::kUnit, i, 0.3)) << "index " << i;
    EXPECT_TRUE(plan.roll(Scope::kDisconnect, i, 1.0));
    EXPECT_TRUE(plan.roll(Scope::kDisconnect, i, 2.0));  // clamped, not UB
  }
}

TEST(FaultPlan, ScopesRollIndependentlyAtObservedRate) {
  FaultPlan plan;
  plan.seed = 7;
  const std::uint64_t trials = 4000;
  std::uint64_t unit_hits = 0, delay_hits = 0, diverged = 0;
  for (std::uint64_t i = 0; i < trials; ++i) {
    const bool u = plan.roll(Scope::kUnit, i, 0.25);
    const bool d = plan.roll(Scope::kDelay, i, 0.25);
    unit_hits += u;
    delay_hits += d;
    diverged += (u != d);
  }
  // Bernoulli(0.25) over 4000 sites: both families near rate, and the two
  // scopes disagree on many sites (they are independent streams).
  EXPECT_NEAR(static_cast<double>(unit_hits) / trials, 0.25, 0.05);
  EXPECT_NEAR(static_cast<double>(delay_hits) / trials, 0.25, 0.05);
  EXPECT_GT(diverged, trials / 8);
}

TEST(FaultPlan, ForInstanceReKeysDeterministically) {
  FaultPlan plan;
  plan.seed = 99;
  plan.tile_failure_rate = 0.5;
  const FaultPlan a1 = plan.for_instance(5);
  const FaultPlan a2 = plan.for_instance(5);
  const FaultPlan b = plan.for_instance(6);
  EXPECT_EQ(a1.seed, a2.seed);
  EXPECT_NE(a1.seed, b.seed);
  EXPECT_EQ(a1.tile_failure_rate, plan.tile_failure_rate);  // rates carry over
}

TEST(FaultPlan, ReadsEnvironmentKnobs) {
  ::setenv("CNASH_FAULT_SEED", "123", 1);
  ::setenv("CNASH_FAULT_UNIT_RATE", "0.25", 1);
  ::setenv("CNASH_FAULT_TILE_RATE", "0.5", 1);
  ::setenv("CNASH_FAULT_DELAY_RATE", "0.125", 1);
  ::setenv("CNASH_FAULT_DELAY_S", "0.01", 1);
  ::setenv("CNASH_FAULT_WRITE_STALL", "0.75", 1);
  ::setenv("CNASH_FAULT_DISCONNECT", "not-a-number", 1);  // kept at default
  const FaultPlan plan = util::fault_plan_from_env();
  EXPECT_EQ(plan.seed, 123u);
  EXPECT_EQ(plan.unit_failure_rate, 0.25);
  EXPECT_EQ(plan.tile_failure_rate, 0.5);
  EXPECT_EQ(plan.unit_delay_rate, 0.125);
  EXPECT_EQ(plan.unit_delay_s, 0.01);
  EXPECT_EQ(plan.write_stall_rate, 0.75);
  EXPECT_EQ(plan.disconnect_rate, 0.0);
  for (const char* name :
       {"CNASH_FAULT_SEED", "CNASH_FAULT_UNIT_RATE", "CNASH_FAULT_TILE_RATE",
        "CNASH_FAULT_DELAY_RATE", "CNASH_FAULT_DELAY_S",
        "CNASH_FAULT_WRITE_STALL", "CNASH_FAULT_DISCONNECT"})
    ::unsetenv(name);
  const FaultPlan off = util::fault_plan_from_env();
  EXPECT_FALSE(off.solver_faults());
  EXPECT_FALSE(off.server_faults());
}

// ---- TiledCrossbar dead tiles and read-back ---------------------------------

la::Matrix integer_payoff(std::size_t n, std::size_t m, util::Rng& rng) {
  la::Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j)
      a(i, j) = static_cast<double>(rng.uniform_int(1, 5));  // >= 1: every
  return a;  // tile holds conducting cells, so a dead tile is detectable
}

TEST(TiledCrossbarFault, DisabledPlanIsByteIdenticalToPlanFree) {
  util::Rng gen(11);
  const la::Matrix payoff = integer_payoff(8, 8, gen);
  const std::uint32_t intervals = 8;
  xbar::ArrayConfig cfg;  // realistic variability — the hard case
  const FaultPlan off;    // all rates zero

  util::Rng prog_a(21), prog_b(21);
  const chip::TiledCrossbar plain(payoff, intervals, 0, 2, cfg, 16, 64,
                                  prog_a);
  const chip::TiledCrossbar with_plan(payoff, intervals, 0, 2, cfg, 16, 64,
                                      prog_b, &off, /*fault_scope=*/0);
  EXPECT_TRUE(plain.failed_tiles().empty());
  EXPECT_TRUE(with_plan.failed_tiles().empty());

  const std::size_t n = plain.n();
  const std::size_t grid_cols = plain.partition().grid_cols();
  std::vector<std::uint32_t> groups(plain.m(), 0);
  util::Rng act(5);
  for (std::uint32_t t = 0; t < intervals; ++t)
    ++groups[act.uniform_index(groups.size())];
  std::vector<double> pa(grid_cols * n, 0.0), pb(grid_cols * n, 0.0);
  plain.read_mv_partials(groups.data(), pa.data());
  with_plan.read_mv_partials(groups.data(), pb.data());
  for (std::size_t i = 0; i < pa.size(); ++i)
    ASSERT_TRUE(same_bits(pa[i], pb[i])) << "partial " << i;
}

TEST(TiledCrossbarFault, DeadTilesReadZeroAndFailReadBack) {
  util::Rng gen(13);
  const la::Matrix payoff = integer_payoff(8, 8, gen);
  const std::uint32_t intervals = 8;
  xbar::ArrayConfig cfg;
  FaultPlan plan;
  plan.seed = 17;
  plan.tile_failure_rate = 1.0;

  util::Rng prog(23);
  const chip::TiledCrossbar tiled(payoff, intervals, 0, 2, cfg, 16, 64, prog,
                                  &plan, /*fault_scope=*/0);
  const std::size_t num_tiles = tiled.partition().num_tiles();
  ASSERT_GT(num_tiles, 1u);  // the grid actually shards this game
  EXPECT_EQ(tiled.failed_tiles().size(), num_tiles);

  // Every analog read off a dead grid is exactly zero current.
  std::vector<std::uint32_t> rows(tiled.n(), 0), groups(tiled.m(), 0);
  util::Rng act(3);
  for (std::uint32_t t = 0; t < intervals; ++t) {
    ++rows[act.uniform_index(rows.size())];
    ++groups[act.uniform_index(groups.size())];
  }
  std::vector<double> partials(tiled.partition().grid_cols() * tiled.n(), -1.0);
  tiled.read_mv_partials(groups.data(), partials.data());
  for (const double v : partials) EXPECT_EQ(v, 0.0);
  std::vector<double> vmv(num_tiles, -1.0);
  tiled.read_vmv_partials(rows.data(), groups.data(), vmv.data());
  for (const double v : vmv) EXPECT_EQ(v, 0.0);
}

TEST(TiledCrossbarFault, PartialFaultsMatchThePlanRolls) {
  util::Rng gen(29);
  const la::Matrix payoff = integer_payoff(8, 8, gen);
  xbar::ArrayConfig cfg;
  FaultPlan plan;
  plan.seed = 31;
  plan.tile_failure_rate = 0.5;
  const std::uint64_t scope = 1000;

  util::Rng prog(37);
  const chip::TiledCrossbar tiled(payoff, 8, 0, 2, cfg, 16, 64, prog, &plan,
                                  scope);
  // The read-back must recover exactly the tiles the plan killed.
  std::vector<std::size_t> expected;
  for (std::size_t t = 0; t < tiled.partition().num_tiles(); ++t)
    if (plan.roll(Scope::kTile, scope + t, plan.tile_failure_rate))
      expected.push_back(t);
  EXPECT_EQ(tiled.failed_tiles(), expected);
  EXPECT_FALSE(expected.empty());  // seed chosen so the test bites
  EXPECT_LT(expected.size(), tiled.partition().num_tiles());
}

TEST(TiledTwoPhaseFault, ConstructionThrowsChipFaultOnDeadTiles) {
  core::TwoPhaseConfig cfg;
  chip::ChipConfig grid;
  grid.tile_rows = 16;
  grid.tile_cols = 64;
  FaultPlan plan;
  plan.seed = 41;
  plan.tile_failure_rate = 1.0;
  EXPECT_THROW(chip::TiledTwoPhaseEvaluator(game::battle_of_sexes(), 8, cfg,
                                            grid, util::Rng(7), &plan),
               chip::ChipFault);
  // The same construction with the plan disabled is healthy.
  const FaultPlan off;
  EXPECT_NO_THROW(chip::TiledTwoPhaseEvaluator(game::battle_of_sexes(), 8, cfg,
                                               grid, util::Rng(7), &off));
}

// ---- "resilient" meta-backend ------------------------------------------------

core::SolveRequest resilient_request(const std::string& primary,
                                     std::size_t runs = 4) {
  core::SolveRequest req(game::battle_of_sexes());
  req.backend = "resilient";
  req.resilient_primary = primary;
  req.runs = runs;
  req.seed = 9;
  req.sa.iterations = 300;
  return req;
}

TEST(ResilientBackend, DisabledPlanIsBitIdenticalToPrimary) {
  const core::SolveRequest req = resilient_request("hardware-sa");
  core::SolveRequest primary_req = req;
  primary_req.backend = "hardware-sa";

  const core::SolveReport resilient =
      core::SolverRegistry::global().at("resilient").solve(req);
  const core::SolveReport primary =
      core::SolverRegistry::global().at("hardware-sa").solve(primary_req);

  EXPECT_EQ(resilient.backend, "resilient");
  EXPECT_EQ(resilient.fallback_count, 0u);
  EXPECT_FALSE(resilient.degraded);
  for (const core::SolveSample& s : resilient.samples)
    EXPECT_FALSE(s.fallback);
  expect_samples_identical(resilient.samples, primary.samples);
  EXPECT_TRUE(same_bits(resilient.best_objective, primary.best_objective));
}

TEST(ResilientBackend, FullTileFaultFallsBackToExactSaEverywhere) {
  core::SolveRequest req = resilient_request("hardware-sa-tiled");
  req.fault.seed = 3;
  req.fault.tile_failure_rate = 1.0;
  core::SolveRequest exact_req = req;
  exact_req.backend = "exact-sa";
  exact_req.fault = util::FaultPlan{};  // exact-sa takes no fault plan

  const core::SolveReport resilient =
      core::SolverRegistry::global().at("resilient").solve(req);
  const core::SolveReport exact =
      core::SolverRegistry::global().at("exact-sa").solve(exact_req);

  // Every primary unit hit a ChipFault; all runs were re-run on exact-sa.
  EXPECT_EQ(resilient.fallback_count, req.runs);
  ASSERT_EQ(resilient.samples.size(), req.runs);
  for (const core::SolveSample& s : resilient.samples)
    EXPECT_TRUE(s.fallback);
  expect_samples_identical(resilient.samples, exact.samples);
  EXPECT_TRUE(same_bits(resilient.best_objective, exact.best_objective));
}

TEST(ResilientBackend, InjectedUnitFailuresFallBack) {
  core::SolveRequest req = resilient_request("hardware-sa");
  req.fault.seed = 5;
  req.fault.unit_failure_rate = 1.0;
  const core::SolveReport report =
      core::SolverRegistry::global().at("resilient").solve(req);
  EXPECT_EQ(report.fallback_count, req.runs);
  for (const core::SolveSample& s : report.samples) EXPECT_TRUE(s.fallback);
}

// ---- validate_request: the robustness knobs ---------------------------------

TEST(ValidateRequest, RejectsBadDeadlines) {
  core::SolveRequest req(game::battle_of_sexes());
  req.deadline_s = -1.0;
  EXPECT_THROW(core::validate_request(req), std::invalid_argument);
  req.deadline_s = std::nan("");
  EXPECT_THROW(core::validate_request(req), std::invalid_argument);
  req.deadline_s = 0.0;  // 0 disables the deadline — valid
  EXPECT_NO_THROW(core::validate_request(req));
}

TEST(ValidateRequest, RejectsZeroIntervalsOnEveryBackend) {
  // The wire protocol accepts intervals in [1, 4096]; an in-process request
  // with I = 0 is rejected up front for every backend, not only the ones
  // that would later fail to map a crossbar.
  for (const std::string& name : core::SolverRegistry::global().names()) {
    core::SolveRequest req(game::battle_of_sexes());
    req.backend = name;
    req.intervals = 0;
    EXPECT_THROW(core::validate_request(req), std::invalid_argument) << name;
    req.intervals = 1;
    EXPECT_NO_THROW(core::validate_request(req)) << name;
  }
}

TEST(ValidateRequest, CapsRunsAndReplicasOnEveryBackend) {
  // Both caps are inclusive; one past either is rejected before any backend
  // sizes a job from it.
  for (const std::string& name : core::SolverRegistry::global().names()) {
    core::SolveRequest req(game::battle_of_sexes());
    req.backend = name;
    req.runs = core::kMaxRuns + 1;
    EXPECT_THROW(core::validate_request(req), std::invalid_argument) << name;
    req.runs = core::kMaxRuns;
    EXPECT_NO_THROW(core::validate_request(req)) << name;
    req.sa.mode = core::SaMode::kReplicaExchange;
    req.sa.replicas = core::kMaxReplicas + 1;
    EXPECT_THROW(core::validate_request(req), std::invalid_argument) << name;
    req.sa.replicas = core::kMaxReplicas;
    EXPECT_NO_THROW(core::validate_request(req)) << name;
  }
}

TEST(ValidateRequest, RejectsZeroIterationsOnSaBackends) {
  // An SA solve with no iterations could only fail on a worker, after the
  // hardware backends programmed a chip for it. The other backends ignore
  // iterations and keep accepting 0.
  const std::vector<std::string> sa_backends = {
      "exact-sa", "hardware-sa", "hardware-sa-tiled", "resilient"};
  std::size_t sa_seen = 0;
  for (const std::string& name : core::SolverRegistry::global().names()) {
    const bool sa = std::find(sa_backends.begin(), sa_backends.end(), name) !=
                    sa_backends.end();
    sa_seen += sa ? 1 : 0;
    for (const core::SaMode mode :
         {core::SaMode::kIndependent, core::SaMode::kReplicaExchange}) {
      core::SolveRequest req(game::battle_of_sexes());
      req.backend = name;
      req.sa.mode = mode;
      req.sa.replicas = 2;
      req.sa.iterations = 0;
      if (sa) {
        EXPECT_THROW(core::validate_request(req), std::invalid_argument)
            << name;
      } else {
        EXPECT_NO_THROW(core::validate_request(req)) << name;
      }
      req.sa.iterations = 1;
      EXPECT_NO_THROW(core::validate_request(req)) << name;
    }
  }
  EXPECT_EQ(sa_seen, sa_backends.size());
}

TEST(ValidateRequest, CapsTheCellsOfAReplicaEnsembleAtOneChip) {
  // A replica-exchange unit programs one chip per replica, so the cell cap
  // holds for the whole ensemble: a 1×1 game at I = 1 whose M array holds
  // kMaxArrayCells / 4 cells fits four replicas, not five.
  auto ensemble = [](const char* backend, const char* primary,
                     std::size_t replicas) {
    core::SolveRequest req(game::BimatrixGame(
        la::Matrix(1, 1, static_cast<double>(core::kMaxArrayCells / 4)),
        la::Matrix(1, 1), "1x1"));
    req.backend = backend;
    req.resilient_primary = primary;
    req.intervals = 1;
    req.chip.tile_cols = core::kMaxArrayCells;  // one block fits a tile
    req.sa.mode = core::SaMode::kReplicaExchange;
    req.sa.replicas = replicas;
    return req;
  };
  struct Target {
    const char* backend;
    const char* primary;
  };
  for (const Target& t : {Target{"hardware-sa", "hardware-sa"},
                          Target{"hardware-sa-tiled", "hardware-sa"},
                          Target{"resilient", "hardware-sa"},
                          Target{"resilient", "hardware-sa-tiled"}}) {
    const std::string name = std::string(t.backend) + "/" + t.primary;
    EXPECT_NO_THROW(core::validate_request(ensemble(t.backend, t.primary, 4)))
        << name;
    try {
      core::validate_request(ensemble(t.backend, t.primary, 5));
      ADD_FAILURE() << name << ": five replicas accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("sa.replicas"), std::string::npos)
          << name << ": " << e.what();
    }
    // Independent runs hold one chip at a time.
    core::SolveRequest independent = ensemble(t.backend, t.primary, 5);
    independent.sa.mode = core::SaMode::kIndependent;
    EXPECT_NO_THROW(core::validate_request(independent)) << name;
  }
  // exact-sa programs no chip.
  EXPECT_NO_THROW(core::validate_request(
      ensemble("exact-sa", "hardware-sa", core::kMaxReplicas)));
}

TEST(ValidateRequest, RejectsFaultsOutsideTheResilientBackend) {
  core::SolveRequest req(game::battle_of_sexes());
  req.backend = "exact-sa";
  req.fault.unit_failure_rate = 0.5;
  EXPECT_THROW(core::validate_request(req), std::invalid_argument);
  req.backend = "resilient";
  EXPECT_NO_THROW(core::validate_request(req));
  req.fault.tile_failure_rate = 1.5;  // out of [0, 1]
  EXPECT_THROW(core::validate_request(req), std::invalid_argument);
  req.fault.tile_failure_rate = 0.0;
  req.fault.unit_delay_s = -0.5;
  EXPECT_THROW(core::validate_request(req), std::invalid_argument);
}

TEST(ValidateRequest, RejectsNonHardwareResilientPrimaries) {
  core::SolveRequest req(game::battle_of_sexes());
  req.backend = "resilient";
  req.resilient_primary = "exact-sa";  // fallback wrapping fallback: nonsense
  EXPECT_THROW(core::validate_request(req), std::invalid_argument);
  req.resilient_primary = "hardware-sa-tiled";
  EXPECT_NO_THROW(core::validate_request(req));
}

TEST(ValidateRequest, RejectsGamesTheChipCannotHold) {
  // Every hardware path maps the game at submit time, so a game the chip
  // model cannot hold is a bad request rather than a failure (or a
  // minutes-long, gigabyte-sized programming run) on a worker thread.
  auto with_payoff = [](double v) {
    return game::BimatrixGame(la::Matrix{{v, 0}, {0, 1}},
                              la::Matrix{{1, 0}, {0, 2}}, "probe");
  };
  // 1×1 game at I = 1: the M array holds exactly `cells` cells.
  auto with_cells = [](std::uint64_t cells) {
    core::SolveRequest req(game::BimatrixGame(
        la::Matrix(1, 1, static_cast<double>(cells)), la::Matrix(1, 1), "1x1"));
    req.intervals = 1;
    req.chip.tile_cols = core::kMaxArrayCells;  // one block fits a tile
    return req;
  };
  struct Target {
    const char* backend;
    const char* primary;
    bool tiled;
  };
  for (const Target& t : {Target{"hardware-sa", "hardware-sa", false},
                          Target{"hardware-sa-tiled", "hardware-sa", true},
                          Target{"resilient", "hardware-sa", false},
                          Target{"resilient", "hardware-sa-tiled", true}}) {
    const std::string name = std::string(t.backend) + "/" + t.primary;
    auto request = [&](core::SolveRequest req) {
      req.backend = t.backend;
      req.resilient_primary = t.primary;
      return req;
    };
    EXPECT_NO_THROW(core::validate_request(request(
        core::SolveRequest(game::battle_of_sexes()))))
        << name;
    EXPECT_THROW(core::validate_request(
                     request(core::SolveRequest(with_payoff(0.5)))),
                 std::invalid_argument)
        << name;
    // A tile smaller than one I×(I·t) element block; "hardware-sa" sizes
    // its own tile and ignores the chip knobs.
    core::SolveRequest small_tile =
        request(core::SolveRequest(game::battle_of_sexes()));
    small_tile.chip.tile_rows = small_tile.intervals - 1;
    if (t.tiled) {
      EXPECT_THROW(core::validate_request(small_tile), std::invalid_argument)
          << name;
    } else {
      EXPECT_NO_THROW(core::validate_request(small_tile)) << name;
    }
    EXPECT_NO_THROW(
        core::validate_request(request(with_cells(core::kMaxArrayCells))))
        << name;
    EXPECT_THROW(
        core::validate_request(request(with_cells(core::kMaxArrayCells + 1))),
        std::invalid_argument)
        << name;
    // Above 2^32 - 1 an element no longer fits the mapping's uint32 cells.
    EXPECT_THROW(core::validate_request(
                     request(core::SolveRequest(with_payoff(1e12)))),
                 std::invalid_argument)
        << name;
  }
  core::SolveRequest exact(with_payoff(0.5));
  exact.backend = "exact-sa";
  EXPECT_NO_THROW(core::validate_request(exact));
}

// ---- SolverService: deadlines and drain -------------------------------------

TEST(ServiceDeadline, ZeroDeadlineNeverDegrades) {
  core::SolverService service({.threads = 2});
  core::SolveRequest req(game::battle_of_sexes());
  req.backend = "exact-sa";
  req.runs = 4;
  req.sa.iterations = 200;
  const core::SolveReport report = service.solve(std::move(req));
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.units_total, report.units_completed);
  EXPECT_EQ(report.samples.size(), 4u);
}

TEST(ServiceDeadline, ImmediatelyExpiredJobReturnsEmptyDegradedReport) {
  core::SolverService service({.threads = 2});
  core::SolveRequest req(game::battle_of_sexes());
  req.backend = "exact-sa";
  req.runs = 8;
  req.sa.iterations = 200;
  req.sa.batch_lanes = 1;  // one run per unit: units_total counts all 8
  req.deadline_s = 1e-9;   // expired before any worker can claim a unit
  const core::SolveReport report = service.solve(std::move(req));
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.units_total, 8u);
  EXPECT_EQ(report.units_completed, 0u);
  EXPECT_TRUE(report.samples.empty());
  EXPECT_TRUE(std::isnan(report.best_objective));
}

// The acceptance contract: a deadline-bounded solve of a 256-action game
// returns a degraded report within deadline + one unit's wall time.
TEST(ServiceDeadline, LargeGameDegradesWithinOneUnitOfTheDeadline) {
  util::Rng gen(1234);
  const game::BimatrixGame big = game::random_game(256, 256, gen);
  core::SolveRequest req(big);
  req.backend = "exact-sa";
  req.runs = 16;
  req.seed = 6;
  req.sa.iterations = 1500;
  req.sa.batch_lanes = 1;  // one run per unit

  // Time one unit inline to scale the deadline to this machine.
  const auto& backend = core::SolverRegistry::global().at("exact-sa");
  const std::unique_ptr<core::PreparedJob> probe = backend.prepare(req);
  ASSERT_EQ(probe->num_units(), 16u);
  const auto p0 = std::chrono::steady_clock::now();
  (void)probe->run_unit(0);
  const double unit_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - p0)
          .count();

  // A deadline long enough for a couple of units but far short of all 16.
  const double deadline_s = std::max(2.5 * unit_s, 0.01);
  req.deadline_s = deadline_s;
  core::SolverService service({.threads = 2});
  const auto t0 = std::chrono::steady_clock::now();
  const core::SolveReport report = service.solve(std::move(req));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.units_total, 16u);
  EXPECT_LT(report.units_completed, 16u);
  EXPECT_EQ(report.samples.size(), report.units_completed);
  // Anytime bound: deadline + one in-flight unit's wall time, with generous
  // scheduling slack (3×) so the assertion is not flaky under load.
  EXPECT_LT(wall, deadline_s + 3.0 * unit_s + 0.5);
}

TEST(ServiceDrain, RejectsSubmissionsWithServiceDrainingError) {
  core::SolverService service({.threads = 1});
  service.drain();
  core::SolveRequest req(game::battle_of_sexes());
  req.backend = "exact-sa";
  req.sa.iterations = 100;
  std::future<core::SolveReport> fut = service.submit(std::move(req));
  EXPECT_THROW(fut.get(), core::ServiceDrainingError);
}

}  // namespace
}  // namespace cnash

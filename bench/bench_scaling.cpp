// Scaling study (beyond the paper's three fixed instances), three axes:
//
//  1. Problem size: C-Nash success rate, distinct-solution coverage and
//     modelled time-to-solution on random coordination games of growing size
//     — the regime where the paper argues S-QUBO solvers collapse.
//  2. Host parallelism: wall-clock speedup of a fixed batch of
//     hardware-evaluator runs on the shared SolverService pool, with the
//     per-job in-flight cap swept 1..N (identical outcomes at every cap —
//     only the clock moves).
//  3. Evaluation path: SA wall clock on the full hardware model with the
//     incremental propose/commit fast path (O(m+n) crossbar delta reads per
//     move) versus the full O(n·m) re-read per iteration, on games up to
//     64 actions.
//
// Usage: bench_scaling [runs] [--threads N] [--json <path>]
//   runs       SA runs per game size in the size sweep (default 60)
//   --threads  max worker threads for both sweeps (default: all hw threads)
//   --json     write machine-readable results to BENCH_*.json

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "chip/tiled_two_phase.hpp"
#include "core/metrics.hpp"
#include "core/service.hpp"
#include "core/timing.hpp"
#include "game/random_games.hpp"
#include "game/support_enum.hpp"
#include "qubo/dwave_proxy.hpp"
#include "util/table.hpp"

namespace {

double seconds_to_solve(cnash::core::SolveRequest request) {
  const auto t0 = std::chrono::steady_clock::now();
  cnash::core::SolverService::shared().solve(std::move(request));
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cnash;

  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  bench::JsonReport report("scaling", cli);
  const std::size_t runs = cli.runs > 0 ? cli.runs : 60;

  // ---- Axis 1: problem size. ----------------------------------------------
  std::printf("=== Scaling: random coordination games, %zu runs each ===\n\n",
              runs);
  util::Table table({"actions", "ground-truth NE", "C-Nash success %",
                     "C-Nash distinct", "C-Nash TTS (s)",
                     "Advantage-proxy success %"});

  const core::CNashTimingModel timing;
  util::Rng game_rng(4242);
  util::Json size_sweep = util::Json::array();
  for (const std::size_t n : {2u, 3u, 4u, 5u, 6u}) {
    // Integer diagonal payoffs keep the crossbar mapping exact.
    game::BimatrixGame g = [&] {
      la::Matrix a(n, n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        a(i, i) = static_cast<double>(2 + game_rng.uniform_index(5));
      return game::BimatrixGame(a, a.transposed(),
                                "coord-" + std::to_string(n));
    }();
    const auto gt = game::all_equilibria(g);

    const std::uint32_t intervals = 24;  // random-diagonal mixed NE rarely sit
    // exactly on this grid, so success counts eps-NE with eps = the grid's
    // intrinsic payoff resolution (range / I).
    const double grid_eps =
        (g.payoff1().max_element() - g.payoff1().min_element()) / intervals;
    const double match_tol = 2.0 / intervals;
    const std::size_t iterations = 4000 * n;
    core::SolveRequest req(g);
    req.backend = "hardware-sa";
    req.runs = runs;
    req.intervals = intervals;
    req.sa.iterations = iterations;
    req.seed = 6000 + n;
    req.nash_eps = grid_eps;
    req.max_parallelism = cli.threads;
    const auto r = core::tally(
        core::SolverService::shared().solve(std::move(req)).samples, gt,
        match_tol);

    const xbar::MappingGeometry geom =
        chip::mapped_geometry(g, intervals, core::TwoPhaseConfig{}).m;
    const double tts =
        timing.time_to_solution_s(geom, iterations, r.success_rate());

    util::Rng rng(6100 + n);
    const qubo::DWaveProxy proxy(g, qubo::dwave_advantage41_config());
    std::vector<core::SolveSample> reads = proxy.run(runs, rng);
    core::verify_samples(g, grid_eps, reads);
    const auto dr = core::tally(reads, gt, match_tol);

    table.add_row({std::to_string(n), std::to_string(gt.size()),
                   core::percent(r.success_rate()),
                   std::to_string(r.distinct_found()) + "/" +
                       std::to_string(gt.size()),
                   std::isfinite(tts) ? util::Table::num(tts, 4) : "-",
                   core::percent(dr.success_rate())});
    util::Json& node = size_sweep.push(util::Json::object());
    node.set("actions", n);
    node.set("backend", "hardware-sa");
    node.set("cnash_success_rate", r.success_rate());
    node.set("dwave_advantage_success_rate", dr.success_rate());
    node.set("cnash_tts_s", tts);
  }
  report.root().set("size_sweep", std::move(size_sweep));
  std::printf("%s\n", table.pretty().c_str());
  std::printf(
      "Shape: C-Nash success decays gently with size while the S-QUBO proxy\n"
      "falls off a cliff once the slack encoding outgrows its precision.\n\n");

  // ---- Axis 2: host thread scaling. ---------------------------------------
  // A fixed batch of hardware-evaluator runs, timed at growing worker counts.
  // Outcomes are bit-identical at every thread count (keyed per-run RNG
  // streams), so the speedup column is a pure wall-clock measurement.
  const std::size_t batch = 64;
  const game::BimatrixGame g = game::bird_game();
  auto make_request = [&](std::size_t threads) {
    core::SolveRequest req(g);
    req.backend = "hardware-sa";
    req.runs = batch;
    req.intervals = 12;
    req.sa.iterations = 4000;
    req.seed = 0x5CA1E;
    req.max_parallelism = threads;
    return req;
  };

  std::size_t max_threads = cli.threads;
  if (max_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    max_threads = hw > 0 ? hw : 1;
  }

  std::printf("=== Thread scaling: %zu hardware-evaluator runs ===\n\n",
              batch);
  util::Table scaling({"threads", "wall clock (s)", "speedup", "runs/s"});
  std::vector<std::size_t> sweep;
  for (std::size_t threads = 1; threads < max_threads; threads *= 2)
    sweep.push_back(threads);
  sweep.push_back(max_threads);  // always measure the requested maximum
  double t1 = 0.0;
  util::Json thread_sweep = util::Json::array();
  for (const std::size_t threads : sweep) {
    const double dt = seconds_to_solve(make_request(threads));
    if (threads == 1) t1 = dt;
    scaling.add_row({std::to_string(threads), util::Table::num(dt, 3),
                     util::Table::num(t1 / dt, 2) + "X",
                     util::Table::num(batch / dt, 1)});
    util::Json& node = thread_sweep.push(util::Json::object());
    node.set("backend", "hardware-sa");
    node.set("threads", threads);
    node.set("wall_clock_s", dt);
    node.set("runs_per_sec", batch / dt);
  }
  report.root().set("thread_sweep", std::move(thread_sweep));
  std::printf("%s\n", scaling.pretty().c_str());
  std::printf(
      "Expected: near-linear speedup to the physical core count (runs are\n"
      "independent; evaluator instances are thread-confined by design).\n\n");

  // ---- Axis 3: incremental vs full two-phase evaluation. ------------------
  // Single-threaded SA on the full hardware model, growing action counts:
  // the full path re-reads every block of both crossbars each iteration
  // (O(n·m) table walks), the incremental path applies O(m+n) delta reads
  // per tick move. Same device sampling, same SA seed on both sides.
  std::printf("=== Hardware evaluation path: incremental vs full re-read ===\n\n");
  util::Table hw({"actions", "SA iters", "full (s)", "incremental (s)",
                  "speedup", "Δ objective"});
  util::Rng hw_game_rng(7311);
  util::Json hw_path_sweep = util::Json::array();
  for (const std::size_t n : {8u, 16u, 32u, 64u, 96u}) {
    game::BimatrixGame g = [&] {
      la::Matrix a(n, n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        a(i, i) = static_cast<double>(2 + hw_game_rng.uniform_index(5));
      return game::BimatrixGame(a, a.transposed(),
                                "coord-" + std::to_string(n));
    }();
    const std::uint32_t intervals = 12;
    core::SaOptions sa;
    sa.iterations = 20000;

    auto timed_run = [&](bool incremental, double* objective) {
      core::TwoPhaseConfig cfg;
      cfg.incremental = incremental;
      chip::TiledTwoPhaseEvaluator hw_eval(g, intervals, cfg,
                                           util::Rng(808));
      util::Rng sa_rng(909);
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = core::simulated_annealing(hw_eval, intervals, sa, sa_rng);
      const auto t1 = std::chrono::steady_clock::now();
      *objective = res.final_objective;
      return std::chrono::duration<double>(t1 - t0).count();
    };

    double f_full = 0.0, f_inc = 0.0;
    const double dt_full = timed_run(false, &f_full);
    const double dt_inc = timed_run(true, &f_inc);
    hw.add_row({std::to_string(n), std::to_string(sa.iterations),
                util::Table::num(dt_full, 3), util::Table::num(dt_inc, 3),
                util::Table::num(dt_full / dt_inc, 1) + "X",
                util::Table::num(std::abs(f_full - f_inc), 6)});
    util::Json& node = hw_path_sweep.push(util::Json::object());
    node.set("actions", n);
    node.set("sa_iterations", sa.iterations);
    node.set("full_wall_clock_s", dt_full);
    node.set("incremental_wall_clock_s", dt_inc);
    node.set("speedup", dt_full / dt_inc);
    node.set("iters_per_sec_incremental", sa.iterations / dt_inc);
  }
  report.root().set("hw_path_sweep", std::move(hw_path_sweep));
  std::printf("%s\n", hw.pretty().c_str());
  std::printf(
      "Both paths run the same noise/ADC pipeline per scoring; Δ objective\n"
      "is the (ADC-LSB-scale) divergence from incremental fp accumulation.\n");
  report.finish();
  return 0;
}

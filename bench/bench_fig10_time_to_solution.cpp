// Fig. 10: time-to-solution of the three Nash solvers. TTS = expected wall
// clock until the first successful run: run_time / success_rate (C-Nash) or
// job_time / success_rate (D-Wave job model). Success rates come from the
// measured proxies; the paper's reported speedups are printed alongside.

#include <cstdio>
#include <cmath>

#include "bench_common.hpp"
#include "core/timing.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::printf("=== Fig. 10: Time-to-Solution ===\n\n");
  util::Table table({"game", "solver", "success %", "TTS (s)",
                     "speedup vs C-Nash", "paper speedup"});

  const core::CNashTimingModel cnash_timing;
  const core::DWaveTimingModel t2000(core::dwave_2000q6_timing());
  const core::DWaveTimingModel tadv(core::dwave_advantage41_timing());

  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  bench::JsonReport report("fig10_time_to_solution", cli);
  std::size_t total_runs = 0;
  const auto instances = game::paper_benchmarks();
  util::Json instances_json = util::Json::array();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const auto& inst = instances[i];
    const std::size_t runs =
        cli.runs > 0 ? cli.runs : bench::default_runs_for(i);
    std::fprintf(stderr, "running %s (%zu runs)...\n", inst.game.name().c_str(),
                 runs);
    const auto ev = bench::evaluate_instance(inst, runs, cli.threads);
    const auto ref = bench::paper_reference(i);
    total_runs += 3 * runs;  // three solvers per instance

    // Crossbar geometry for the C-Nash latency model.
    const auto shifted = inst.game.shifted_non_negative(0.0);
    const auto t_cells =
        static_cast<std::uint32_t>(shifted.payoff1().max_element());
    const xbar::MappingGeometry geom{inst.game.num_actions1(),
                                     inst.game.num_actions2(), inst.intervals,
                                     t_cells};

    const double cnash_tts = cnash_timing.time_to_solution_s(
        geom, inst.sa_iterations, ev.cnash.success_rate());
    const double tts_2000 =
        t2000.time_to_solution_s(ev.dwave_2000q.success_rate());
    const double tts_adv =
        tadv.time_to_solution_s(ev.dwave_advantage.success_rate());

    auto add = [&](const std::string& solver, double success, double tts,
                   double paper_speedup) {
      table.add_row({inst.game.name(), solver, core::percent(success),
                     std::isfinite(tts) ? util::Table::num(tts, 4) : "-",
                     std::isfinite(tts) && tts > 0 && cnash_tts > 0
                         ? util::Table::num(tts / cnash_tts, 1) + "X"
                         : "-",
                     paper_speedup < 0
                         ? "-"
                         : util::Table::num(paper_speedup, 1) + "X"});
    };
    add("D-Wave 2000 Q6 (proxy)", ev.dwave_2000q.success_rate(), tts_2000,
        ref.speedup_2000q);
    add("D-Wave Advantage 4.1 (proxy)", ev.dwave_advantage.success_rate(),
        tts_adv, ref.speedup_advantage);
    add("C-Nash (this work)", ev.cnash.success_rate(), cnash_tts, 1.0);

    util::Json node = bench::report_instance(ev);
    node.set("cnash_tts_s", cnash_tts);
    node.set("dwave_2000q_tts_s", tts_2000);
    node.set("dwave_advantage_tts_s", tts_adv);
    instances_json.push(std::move(node));
  }
  report.root().set("instances", std::move(instances_json));
  std::printf("%s\n", table.pretty().c_str());
  std::printf(
      "C-Nash TTS = SA iterations x iteration latency (1 MHz controller, "
      "analog path\nin ns) / success rate; D-Wave TTS = (programming + 5000 "
      "reads) / success rate.\n");

  // ---- Replica-exchange series: iterations-to-target on a hard game --------
  // Parallel tempering changes WHAT the controller converges to, not just how
  // fast an iteration runs: on coordination games the pure equilibria sit
  // behind high barriers that plain SA at the production schedule rarely
  // crosses. The series sweeps an iterations ladder on Coordination-64
  // (64 actions, I = 4) and reports the first rung where each mode reaches
  // 50% success. Replicas of one ensemble occupy concurrent crossbar banks,
  // so an ensemble's modeled iteration count is that of a single run.
  std::printf("\n=== SA mode ablation: replica exchange vs plain SA ===\n\n");
  const std::size_t plain_runs = cli.runs > 0 ? 2 * cli.runs : 48;
  const std::size_t re_ensembles = cli.runs > 0 ? cli.runs : 24;
  const double target = 0.5;
  util::Table re_table(
      {"SA iterations", "plain SA success", "replica-exchange success"});
  util::Json re_node = util::Json::object();
  util::Json ladder = util::Json::array();
  re_node.set("game", "Coordination-64");
  re_node.set("intervals", 4.0);
  re_node.set("target_success", target);
  std::size_t plain_first = 0, re_first = 0;
  for (const std::size_t iters : {4000, 16000, 64000, 256000}) {
    core::SolveRequest req(game::coordination(64));
    req.backend = "exact-sa";
    req.intervals = 4;
    req.seed = 0xF160;
    req.sa.iterations = iters;
    req.runs = plain_runs;
    const auto plain = core::SolverRegistry::global().at("exact-sa").solve(req);
    req.sa.mode = core::SaMode::kReplicaExchange;
    req.runs = re_ensembles;
    const auto re = core::SolverRegistry::global().at("exact-sa").solve(req);
    total_runs += plain_runs + re_ensembles * req.sa.replicas;
    const double ps = plain.nash_rate();
    const double rs = re.nash_rate();
    if (plain_first == 0 && ps >= target) plain_first = iters;
    if (re_first == 0 && rs >= target) re_first = iters;
    re_table.add_row({util::Table::num(static_cast<double>(iters), 0),
                      core::percent(ps), core::percent(rs)});
    util::Json& row = ladder.push(util::Json::object());
    row.set("iterations", static_cast<double>(iters));
    row.set("plain_success", ps);
    row.set("replica_exchange_success", rs);
    std::fprintf(stderr, "re ladder %zu: plain %.2f re %.2f\n", iters, ps, rs);
  }
  re_node.set("ladder", std::move(ladder));
  re_node.set("plain_first_success_iters", static_cast<double>(plain_first));
  re_node.set("re_first_success_iters", static_cast<double>(re_first));
  report.root().set("replica_exchange", std::move(re_node));
  std::printf("%s\n", re_table.pretty().c_str());
  auto rung = [](std::size_t it) {
    return it == 0 ? std::string("> 256000")
                   : util::Table::num(static_cast<double>(it), 0);
  };
  std::printf(
      "Coordination-64, I = 4, %zu plain runs / %zu ensembles x 8 replicas "
      "per rung.\nFirst rung at >= 50%% success: plain SA %s iterations, "
      "replica exchange %s.\n",
      plain_runs, re_ensembles, rung(plain_first).c_str(),
      rung(re_first).c_str());

  report.finish(static_cast<double>(total_runs));
  return 0;
}

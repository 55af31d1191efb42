// Table 1: success rates of finding an NE solution, three games x three
// solvers. D-Wave rows show the behavioural proxy (measured) next to the
// literature values the paper reports.

#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::printf("=== Table 1: Success Rates of Finding an NE Solution ===\n\n");
  util::Table table({"Nash solver", "Battle of the Sexes (2 actions)",
                     "Bird Game (3 actions)",
                     "Modified Prisoner's Dilemma (8 actions)"});

  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  bench::JsonReport report("table1_success_rate", cli);
  std::size_t total_runs = 0;
  const auto instances = game::paper_benchmarks();
  std::vector<bench::InstanceEvaluation> evals;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::size_t runs =
        cli.runs > 0 ? cli.runs : bench::default_runs_for(i);
    std::fprintf(stderr, "running %s (%zu runs)...\n",
                 instances[i].game.name().c_str(), runs);
    evals.push_back(bench::evaluate_instance(instances[i], runs, cli.threads));
    bench::report_instance(report.root().arr("instances").push(), evals.back());
    total_runs += 3 * runs;
  }

  auto row = [&](const std::string& name,
                 auto&& getter) -> std::vector<std::string> {
    std::vector<std::string> cells{name};
    for (const auto& ev : evals)
      cells.push_back(core::percent(getter(ev).success_rate()));
    return cells;
  };
  table.add_row(row("D-Wave 2000 Q6 (proxy, measured)",
                    [](const auto& ev) { return ev.dwave_2000q; }));
  table.add_row(row("D-Wave Advantage 4.1 (proxy, measured)",
                    [](const auto& ev) { return ev.dwave_advantage; }));
  table.add_row(row("C-Nash (this work, measured)",
                    [](const auto& ev) { return ev.cnash; }));

  std::vector<std::string> lit1{"D-Wave 2000 Q6 (paper, literature)"};
  std::vector<std::string> lit2{"D-Wave Advantage 4.1 (paper)"};
  std::vector<std::string> lit3{"C-Nash (paper)"};
  for (std::size_t i = 0; i < evals.size(); ++i) {
    const auto ref = bench::paper_reference(i);
    lit1.push_back(ref.success_2000q < 0 ? "-"
                                         : util::Table::num(ref.success_2000q, 2));
    lit2.push_back(util::Table::num(ref.success_advantage, 2));
    lit3.push_back(util::Table::num(ref.success_cnash, 2));
  }
  table.add_row(lit1);
  table.add_row(lit2);
  table.add_row(lit3);

  std::printf("%s\n", table.pretty().c_str());
  std::printf("Ground-truth targets: %zu / %zu / %zu equilibria "
              "(paper: 3 / 6 / 25 — see the README's benchmark game "
              "substitutions).\n",
              evals[0].ground_truth.size(), evals[1].ground_truth.size(),
              evals[2].ground_truth.size());
  report.finish(static_cast<double>(total_runs));
  return 0;
}

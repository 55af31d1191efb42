// Fig. 8: distribution of solutions (error / pure NE / mixed NE fractions)
// found by each Nash solver across all SA runs, per game.

#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::printf("=== Fig. 8: Solution Distributions (error / pure / mixed) ===\n\n");
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  bench::JsonReport report("fig8_solution_distribution", cli);
  std::size_t total_runs = 0;
  const auto instances = game::paper_benchmarks();
  util::Json instances_json = util::Json::array();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::size_t runs =
        cli.runs > 0 ? cli.runs : bench::default_runs_for(i);
    std::fprintf(stderr, "running %s (%zu runs)...\n",
                 instances[i].game.name().c_str(), runs);
    const auto ev = bench::evaluate_instance(instances[i], runs, cli.threads);
    total_runs += 3 * runs;
    util::Json node = bench::report_instance(ev);
    util::Json cnash = node.at("cnash");
    cnash.set("mixed_fraction", ev.cnash.mixed_fraction());
    cnash.set("error_fraction", ev.cnash.error_fraction());
    node.set("cnash", std::move(cnash));
    instances_json.push(std::move(node));

    std::printf("--- (%c) %s ---\n", static_cast<char>('a' + i),
                instances[i].game.name().c_str());
    util::Table table({"solver", "error %", "pure NE %", "mixed NE %"});
    auto add = [&](const std::string& name, const core::SolverReport& r) {
      table.add_row({name, core::percent(r.error_fraction()),
                     core::percent(r.pure_fraction()),
                     core::percent(r.mixed_fraction())});
    };
    add("D-Wave 2000 Q6 (proxy)", ev.dwave_2000q);
    add("D-Wave Advantage 4.1 (proxy)", ev.dwave_advantage);
    add("C-Nash (this work)", ev.cnash);
    std::printf("%s\n", table.pretty().c_str());
  }
  report.root().set("instances", std::move(instances_json));
  std::printf(
      "Paper shape: only C-Nash reports a non-zero mixed-NE share; the\n"
      "S-QUBO solvers are structurally pure-only and their error share grows\n"
      "with problem size.\n");
  report.finish(static_cast<double>(total_runs));
  return 0;
}

// Repeated Prisoner's Dilemma tournament: a realistic game-theory workload.
//
// Builds the Axelrod-style meta-game over all eight deterministic memory-one
// strategies (payoff = average per-round score over 64 rounds), enumerates its
// exact equilibria, and asks the C-Nash solver (exact objective backend) to
// rediscover them.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/repeated_pd.hpp"
#include "game/support_enum.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  std::size_t threads = 0;  // 0 = one run per service worker
  for (int a = 1; a + 1 < argc; ++a)
    if (!std::strcmp(argv[a], "--threads"))
      threads = std::strtoul(argv[a + 1], nullptr, 10);

  const auto roster = game::memory_one_roster();
  const game::BimatrixGame g = game::repeated_pd_metagame(64);

  std::printf("Tournament payoffs (average per round, row vs column):\n");
  util::Table payoff_table([&] {
    std::vector<std::string> headers{"strategy"};
    for (const auto& s : roster) headers.push_back(s.name);
    return headers;
  }());
  for (std::size_t i = 0; i < roster.size(); ++i) {
    std::vector<std::string> row{roster[i].name};
    for (std::size_t j = 0; j < roster.size(); ++j)
      row.push_back(util::Table::num(g.payoff1()(i, j), 2));
    payoff_table.add_row(row);
  }
  std::printf("%s\n", payoff_table.pretty().c_str());

  game::SupportEnumOptions opts;
  opts.max_support = 3;  // keep the degenerate tournament tractable
  const auto result = game::support_enumeration(g, opts);
  std::printf("equilibria with support size <= 3: %zu%s\n",
              result.equilibria.size(),
              result.degenerate_flag ? " (degenerate game: ties abound)" : "");
  auto describe = [&](const la::Vector& s) {
    std::string out;
    for (std::size_t i = 0; i < roster.size(); ++i)
      if (s[i] > 1e-9) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%s:%.2f ", roster[i].name.c_str(), s[i]);
        out += buf;
      }
    return out;
  };
  for (const auto& e : result.equilibria)
    std::printf("  row[ %s] col[ %s] %s\n", describe(e.p).c_str(),
                describe(e.q).c_str(), e.pure ? "(pure)" : "(mixed)");

  // C-Nash with the exact objective backend (tournament payoffs are 64-round
  // averages — neither integers nor on any small probability grid — so this
  // example reports ε-approximate equilibria: profiles where no deviation
  // gains more than ε = 0.05 payoff per round).
  core::SolveRequest request(g);
  request.backend = "exact-sa";
  request.runs = 100;
  request.intervals = 16;
  request.sa.iterations = 20000;
  request.seed = 64;
  request.nash_eps = 0.05;
  request.max_parallelism = threads;
  const auto report = core::tally(
      core::SolverService::shared().solve(std::move(request)).samples,
      result.equilibria, /*match_tol=*/0.05);
  std::printf(
      "\nC-Nash: %s%% of runs ended at an eps=0.05 approximate equilibrium,\n"
      "touching %zu/%zu of the listed exact equilibria within 0.05.\n",
      core::percent(report.success_rate()).c_str(), report.distinct_found(),
      report.target());
  return 0;
}

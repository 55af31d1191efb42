// Ablation: multi-level-cell FeFETs ([29]) vs the paper's binary (1-bit)
// cells. More levels shrink the bi-crossbar (fewer cells per payoff element)
// but intermediate conductance states carry extra programming spread; this
// bench sweeps the level count on the 8-action game and reports array size,
// estimated area, and solver quality.

#include <algorithm>
#include <cstdio>

#include "chip/tiled_two_phase.hpp"
#include "core/metrics.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/support_enum.hpp"
#include "util/table.hpp"
#include "xbar/area.hpp"

int main(int argc, char** argv) {
  using namespace cnash;

  const std::size_t runs = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 40;
  const auto inst = game::paper_benchmarks()[2];  // Modified PD, I = 60
  const auto gt = game::all_equilibria(inst.game);

  std::printf("=== Ablation: multi-level cells (%s, %zu runs each) ===\n\n",
              inst.game.name().c_str(), runs);
  util::Table table({"levels/cell", "t (cells/element)", "array cells (M)",
                     "macro area (mm2)", "success %", "distinct found"});

  const xbar::AreaModel area_model;
  // Success rate is conditioned on the fabricated crossbar instance (static
  // variability draw), which carries several-sigma spread on this large
  // array — average over independently fabricated macros.
  constexpr int kInstances = 4;
  for (const std::uint32_t levels : {2u, 3u, 5u, 12u, 23u}) {
    core::TwoPhaseConfig hardware;
    hardware.levels_per_cell = levels;
    const chip::ArrayGeometry geom =
        chip::mapped_geometry(inst.game, inst.intervals, hardware);
    const double cells =
        static_cast<double>(geom.m.total_cells() + geom.nt.total_cells());
    const double area_mm2 = area_model.macro(geom.m, geom.nt).total_um2() / 1e6;
    std::vector<core::SolveSample> samples;
    for (int instance = 0; instance < kInstances; ++instance) {
      core::SolveRequest req(inst.game);
      req.backend = "hardware-sa";
      req.runs = std::max<std::size_t>(1, runs / kInstances);
      req.intervals = inst.intervals;
      req.sa.iterations = inst.sa_iterations;
      req.seed = 5200 + levels * 17 + static_cast<std::uint64_t>(instance);
      req.nash_eps = 1e-9;
      req.hardware = hardware;
      const core::SolveReport report =
          core::SolverService::shared().solve(std::move(req));
      samples.insert(samples.end(), report.samples.begin(),
                     report.samples.end());
    }
    const auto r = core::tally(samples, gt);
    table.add_row({std::to_string(levels),
                   std::to_string(geom.m.cells_per_element),
                   util::Table::num(cells / 1e6, 2),
                   util::Table::num(area_mm2, 3),
                   core::percent(r.success_rate()),
                   std::to_string(r.distinct_found()) + "/" +
                       std::to_string(r.target())});
  }
  std::printf("%s\n", table.pretty().c_str());
  std::printf(
      "Shape: moderate level counts shrink the macro by an order of magnitude\n"
      "at comparable (or better: fewer cells, less accumulated spread) solver\n"
      "quality; collapsing a payoff element into a single cell exposes the\n"
      "intermediate-state programming spread and costs success rate.\n");
  return 0;
}

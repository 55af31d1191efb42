// Ablation: multi-level-cell FeFETs ([29]) vs the paper's binary (1-bit)
// cells. More levels shrink the bi-crossbar (fewer cells per payoff element)
// but intermediate conductance states carry extra programming spread; this
// bench sweeps the level count on the 8-action game and reports array size,
// estimated area, and solver quality.

#include <cstdio>

#include "core/metrics.hpp"
#include "core/solver.hpp"
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
    std::vector<core::CandidateSolution> cands;
    const xbar::MappingGeometry* geom = nullptr;
    double cells = 0.0, area_mm2 = 0.0;
    std::size_t distinct = 0;
    for (int instance = 0; instance < kInstances; ++instance) {
      core::CNashConfig cfg;
      cfg.intervals = inst.intervals;
      cfg.sa.iterations = inst.sa_iterations;
      cfg.seed = 5200 + levels * 17 + static_cast<std::uint64_t>(instance);
      cfg.hardware.levels_per_cell = levels;
      core::CNashSolver solver(inst.game, cfg);
      const auto& gm = solver.hardware()->chip_m().mapping().geometry();
      const auto& gnt = solver.hardware()->chip_nt().mapping().geometry();
      cells = static_cast<double>(gm.total_cells() + gnt.total_cells());
      area_mm2 = area_model.macro(gm, gnt).total_um2() / 1e6;
      static xbar::MappingGeometry geom_keep;
      geom_keep = gm;
      geom = &geom_keep;
      std::vector<core::CandidateSolution> inst_cands;
      for (const auto& o : solver.run(runs / kInstances))
        inst_cands.push_back({o.p, o.q});
      distinct = std::max(
          distinct,
          core::classify(inst.game, gt, inst_cands, 1e-9).distinct_found());
      cands.insert(cands.end(), inst_cands.begin(), inst_cands.end());
    }
    const auto r = core::classify(inst.game, gt, cands, 1e-9);
    table.add_row({std::to_string(levels),
                   std::to_string(geom->cells_per_element),
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

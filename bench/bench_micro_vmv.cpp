// Microbenchmarks (google-benchmark): cost of the simulator primitives — the
// two-phase hardware evaluation, exact objective, crossbar reads, WTA
// reductions, annealer sweeps, the simd:: kernel layer at each ISA level, and
// the lockstep run-batched SA drivers.
//
// Supports the shared `--json <path>` flag (BENCH_micro_vmv.json) alongside
// the usual --benchmark_* flags.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "chip/tiled_two_phase.hpp"
#include "core/anneal.hpp"
#include "core/engine.hpp"
#include "core/solver.hpp"
#include "game/games.hpp"
#include "qubo/annealer.hpp"
#include "qubo/squbo_builder.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"
#include "wta/wta_tree.hpp"

namespace {

using namespace cnash;

void BM_LaMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform();
  la::Vector v(n), out;
  for (auto& x : v) x = rng.uniform();
  for (auto _ : state) {
    m.multiply_into(v, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LaMultiply)->Arg(8)->Arg(64)->Arg(256);

void BM_LaMultiplyTransposed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(12);
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform();
  la::Vector v(n), out;
  for (auto& x : v) x = rng.uniform();
  for (auto _ : state) {
    m.multiply_transposed_into(v, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LaMultiplyTransposed)->Arg(8)->Arg(64)->Arg(256);

void BM_LaVmv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(13);
  la::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform();
  la::Vector v(n), w(n);
  for (auto& x : v) x = rng.uniform();
  for (auto& x : w) x = rng.uniform();
  for (auto _ : state) benchmark::DoNotOptimize(la::vmv(v, m, w));
}
BENCHMARK(BM_LaVmv)->Arg(8)->Arg(64)->Arg(256);

void BM_ExactObjective(benchmark::State& state) {
  core::ExactMaxQubo f(game::modified_prisoners_dilemma());
  util::Rng rng(1);
  game::QuantizedProfile prof{game::QuantizedStrategy::random(8, 60, rng),
                              game::QuantizedStrategy::random(8, 60, rng)};
  for (auto _ : state) benchmark::DoNotOptimize(f.evaluate(prof));
}
BENCHMARK(BM_ExactObjective);

void BM_TwoPhaseHardwareEval(benchmark::State& state) {
  const auto inst = game::paper_benchmarks()[static_cast<std::size_t>(
      state.range(0))];
  core::TwoPhaseConfig cfg;
  chip::TiledTwoPhaseEvaluator hw(inst.game, inst.intervals, cfg,
                                  util::Rng(2));
  util::Rng rng(3);
  game::QuantizedProfile prof{
      game::QuantizedStrategy::random(inst.game.num_actions1(), inst.intervals,
                                      rng),
      game::QuantizedStrategy::random(inst.game.num_actions2(), inst.intervals,
                                      rng)};
  for (auto _ : state) benchmark::DoNotOptimize(hw.evaluate(prof));
}
BENCHMARK(BM_TwoPhaseHardwareEval)->Arg(0)->Arg(1)->Arg(2);

void BM_CrossbarVmvRead(benchmark::State& state) {
  const auto inst = game::paper_benchmarks()[2];
  core::TwoPhaseConfig cfg;
  chip::TiledTwoPhaseEvaluator hw(inst.game, inst.intervals, cfg,
                                  util::Rng(4));
  util::Rng rng(5);
  const auto p = game::QuantizedStrategy::random(8, 60, rng).counts();
  const auto q = game::QuantizedStrategy::random(8, 60, rng).counts();
  for (auto _ : state)
    benchmark::DoNotOptimize(hw.chip_m().tile(0, 0).read_vmv(p, q));
}
BENCHMARK(BM_CrossbarVmvRead);

void BM_TwoPhaseIncrementalPropose(benchmark::State& state) {
  // One SA tick move scored through the incremental propose/commit path —
  // O(m+n) crossbar delta reads + WTA/ADC — vs the full re-read of
  // BM_TwoPhaseHardwareEval.
  const auto inst = game::paper_benchmarks()[static_cast<std::size_t>(
      state.range(0))];
  core::TwoPhaseConfig cfg;
  chip::TiledTwoPhaseEvaluator hw(inst.game, inst.intervals, cfg,
                                  util::Rng(2));
  util::Rng rng(3);
  game::QuantizedProfile prof{
      game::QuantizedStrategy::random(inst.game.num_actions1(), inst.intervals,
                                      rng),
      game::QuantizedStrategy::random(inst.game.num_actions2(), inst.intervals,
                                      rng)};
  hw.reset(prof);
  std::size_t from = 0;
  while (prof.p.count(from) == 0) ++from;
  const std::size_t to = (from + 1) % inst.game.num_actions1();
  const core::TickMove mv{core::TickMove::Player::kRow,
                          static_cast<std::uint32_t>(from),
                          static_cast<std::uint32_t>(to)};
  for (auto _ : state) benchmark::DoNotOptimize(hw.propose(&mv, 1));
}
BENCHMARK(BM_TwoPhaseIncrementalPropose)->Arg(0)->Arg(1)->Arg(2);

void BM_WtaTreeReduce(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  wta::WtaTree tree(n);
  util::Rng rng(6);
  std::vector<double> inputs(n);
  for (auto& v : inputs) v = rng.uniform(1e-6, 20e-6);
  for (auto _ : state) benchmark::DoNotOptimize(tree.reduce(inputs, &rng));
}
BENCHMARK(BM_WtaTreeReduce)->Arg(2)->Arg(8)->Arg(64);

void BM_SaIterationBattleOfSexes(benchmark::State& state) {
  core::TwoPhaseConfig cfg;
  chip::TiledTwoPhaseEvaluator hw(game::battle_of_sexes(), 12, cfg,
                                  util::Rng(7));
  util::Rng rng(8);
  core::SaOptions opts;
  opts.iterations = 100;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::simulated_annealing(hw, 12, opts, rng));
}
BENCHMARK(BM_SaIterationBattleOfSexes)->Unit(benchmark::kMicrosecond);

void BM_SQuboAnnealRead(benchmark::State& state) {
  const qubo::SQubo sq(game::bird_game());
  util::Rng rng(9);
  for (auto _ : state)
    benchmark::DoNotOptimize(qubo::anneal(sq.model(), {4.0, 0.05, 60}, rng));
}
BENCHMARK(BM_SQuboAnnealRead)->Unit(benchmark::kMicrosecond);

void BM_CrossbarProgramming(benchmark::State& state) {
  const auto inst = game::paper_benchmarks()[static_cast<std::size_t>(
      state.range(0))];
  const auto shifted = inst.game.shifted_non_negative(0.0);
  for (auto _ : state) {
    util::Rng rng(10);
    xbar::CrossbarMapping map(shifted.payoff1(), inst.intervals);
    xbar::ArrayConfig cfg;
    benchmark::DoNotOptimize(
        xbar::ProgrammedCrossbar(std::move(map), cfg, rng));
  }
}
BENCHMARK(BM_CrossbarProgramming)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// ---- simd:: kernel layer, SIMD-vs-scalar axis -------------------------------
// Arg(0/1/2) selects the forced ISA level (scalar/avx2/avx512); levels the
// host cannot run are skipped. All levels produce identical bits — these rows
// quantify what the wider units buy, kernel by kernel.

bool enter_level(benchmark::State& state, std::int64_t level_arg) {
  const auto level = static_cast<simd::IsaLevel>(level_arg);
  if (!simd::force_level(level)) {
    state.SkipWithError("ISA level unsupported on this host/build");
    return false;
  }
  state.SetLabel(simd::level_name(level));
  return true;
}

void leave_level() { simd::force_level(simd::max_supported_level()); }

void BM_SimdAxpySkip(benchmark::State& state) {
  if (!enter_level(state, state.range(0))) return;
  constexpr std::size_t n = 256;
  util::Rng rng(20);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = rng.uniform();
  for (auto& v : y) v = rng.uniform();
  for (auto _ : state) {
    simd::axpy_skip(y.data(), 1.0009, x.data(), n, n / 2);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  leave_level();
}
BENCHMARK(BM_SimdAxpySkip)->Arg(0)->Arg(1)->Arg(2);

void BM_SimdDot(benchmark::State& state) {
  if (!enter_level(state, state.range(0))) return;
  constexpr std::size_t n = 256;
  util::Rng rng(21);
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.uniform();
  for (auto& v : b) v = rng.uniform();
  for (auto _ : state)
    benchmark::DoNotOptimize(simd::dot(a.data(), b.data(), n));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  leave_level();
}
BENCHMARK(BM_SimdDot)->Arg(0)->Arg(1)->Arg(2);

void BM_SimdFillNormals(benchmark::State& state) {
  if (!enter_level(state, state.range(0))) return;
  constexpr std::size_t n = 1024;
  util::Rng rng(22);
  std::vector<double> out(n);
  for (auto _ : state) {
    simd::fill_normals(rng, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  leave_level();
}
BENCHMARK(BM_SimdFillNormals)->Arg(0)->Arg(1)->Arg(2);

void BM_SimdOffCellExp10(benchmark::State& state) {
  if (!enter_level(state, state.range(0))) return;
  constexpr std::size_t n = 256;
  util::Rng rng(23);
  std::vector<double> zv(n), sum(n, 0.0);
  for (auto& v : zv) v = rng.uniform(-3.0, 3.0);
  for (auto _ : state) {
    simd::off_cell_accumulate(sum.data(), zv.data(), n, 1e-9, 0.35);
    benchmark::DoNotOptimize(sum.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  leave_level();
}
BENCHMARK(BM_SimdOffCellExp10)->Arg(0)->Arg(1)->Arg(2);

// ---- Lockstep run-batched SA, batched-kernel axis ---------------------------
// Arg(K) = lockstep lanes per simulated_annealing_batch call. Reported time
// is for K lanes x 200 iterations; items/s is lane-iterations/s, so the
// per-run cost win from the shared payoff block shows up directly.

void BM_SaExactBatchLanes(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const core::ExactEvaluatorFactory factory(game::coordination(64));
  core::SaOptions opts;
  opts.iterations = 200;
  std::vector<std::uint64_t> keys(k);
  const util::Rng root(24);
  for (std::size_t l = 0; l < k; ++l) keys[l] = 2 * l;
  for (auto _ : state) {
    std::vector<util::Rng> rngs;
    for (std::size_t l = 0; l < k; ++l) rngs.push_back(root.split(2 * l + 1));
    auto batch = factory.create_batched(keys.data(), k);
    benchmark::DoNotOptimize(
        core::simulated_annealing_batch(*batch, 12, opts, rngs.data()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * k * opts.iterations));
}
BENCHMARK(BM_SaExactBatchLanes)->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_SaTwoPhaseBatchLanes(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const core::HardwareEvaluatorFactory factory(game::bird_game(), 12,
                                               core::TwoPhaseConfig{},
                                               util::Rng(25));
  core::SaOptions opts;
  opts.iterations = 200;
  std::vector<std::uint64_t> keys(k);
  const util::Rng root(26);
  for (std::size_t l = 0; l < k; ++l) keys[l] = 2 * l;
  for (auto _ : state) {
    std::vector<util::Rng> rngs;
    for (std::size_t l = 0; l < k; ++l) rngs.push_back(root.split(2 * l + 1));
    auto batch = factory.create_batched(keys.data(), k);
    benchmark::DoNotOptimize(
        core::simulated_annealing_batch(*batch, 12, opts, rngs.data()));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * k * opts.iterations));
}
BENCHMARK(BM_SaTwoPhaseBatchLanes)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_SaReplicaExchangeEnsemble(benchmark::State& state) {
  const core::ExactEvaluatorFactory factory(game::coordination(64));
  core::SaOptions opts;
  opts.iterations = 200;
  const std::size_t r = opts.replicas;
  std::vector<std::uint64_t> keys(r);
  const util::Rng root(27);
  for (std::size_t l = 0; l < r; ++l) keys[l] = 2 * l;
  for (auto _ : state) {
    std::vector<util::Rng> rngs;
    for (std::size_t l = 0; l < r; ++l) rngs.push_back(root.split(2 * l + 1));
    util::Rng swap_rng = root.split(2 * r + 1);
    auto batch = factory.create_batched(keys.data(), r);
    benchmark::DoNotOptimize(core::simulated_annealing_replica_exchange(
        *batch, 12, opts, rngs.data(), swap_rng));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * r * opts.iterations));
}
BENCHMARK(BM_SaReplicaExchangeEnsemble)->Unit(benchmark::kMicrosecond);

// ---- main: google-benchmark plus the repo's shared --json reporting ---------

/// Console reporter that also captures every run for BENCH_micro_vmv.json.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(bench::Json* out) : out_(out) {}
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.error_occurred) continue;
      bench::Json& node = out_->arr("benchmarks").push();
      node.set("name", r.benchmark_name());
      node.set("real_time_ns", r.GetAdjustedRealTime());
      node.set("cpu_time_ns", r.GetAdjustedCPUTime());
      node.set("iterations", static_cast<double>(r.iterations));
      if (!r.report_label.empty()) node.set("label", r.report_label);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::Json* out_;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(argc, argv);
  // Hand google-benchmark only its own flags; ours would be rejected.
  std::vector<char*> gb_args{argv[0]};
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) gb_args.push_back(argv[i]);
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());

  bench::JsonReport report("micro_vmv", cli);
  report.root().set("simd_active_level",
                    simd::level_name(simd::active_level()));
  JsonCaptureReporter reporter(&report.root());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.finish();
  return 0;
}

// The in-process pipeline replay (output checks of every run, spans of a
// traced run) and the per-layer probes of a traced run. Every measurement
// here times a call into a layer's public function from outside; nothing in
// the library is instrumented for the benchmark.

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>

#include "bench.hpp"
#include "chip/tiled_backend.hpp"
#include "core/anneal.hpp"
#include "core/backend.hpp"
#include "core/engine.hpp"
#include "core/maxqubo.hpp"
#include "core/report_json.hpp"
#include "core/service.hpp"
#include "game/games.hpp"
#include "game/strategy.hpp"
#include "game/verify.hpp"
#include "obs/trace.hpp"
#include "qubo/dwave_proxy.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/protocol.hpp"
#include "simd/simd.hpp"
#include "store/store.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cnash::util::Json;
using cnash::util::Rng;

/// Op ids of probe spans start here (replay ops are 1, 2, ...).
constexpr std::uint64_t kProbeOp = 1u << 30;

/// A benchmark span of `op` on `tracer` (inert while it is disabled).
cnash::obs::Span span(cnash::obs::TraceRecorder& tracer, const char* name,
                      std::uint64_t op) {
  return cnash::obs::Span(&tracer, name, kBenchCategory, op);
}

template <class F>
double timed_us(cnash::obs::TraceRecorder& tracer, const char* name,
                std::uint64_t op, F&& fn) {
  const cnash::obs::Span s = span(tracer, name, op);
  const Clock::time_point t0 = Clock::now();
  fn();
  return 1e6 * seconds_between(t0, Clock::now());
}

cnash::core::SolveReport solve_traced(cnash::core::SolverService& service,
                                      cnash::core::SolveRequest request,
                                      std::uint64_t op) {
  std::promise<cnash::core::SolveReport> promise;
  std::future<cnash::core::SolveReport> future = promise.get_future();
  cnash::core::JobHooks hooks;
  hooks.trace_id = op;
  hooks.on_complete = [&promise](cnash::core::SolveReport&& report,
                                 std::exception_ptr error) {
    if (error)
      promise.set_exception(error);
    else
      promise.set_value(std::move(report));
  };
  service.submit_async(std::move(request), std::move(hooks));
  if (future.wait_for(std::chrono::seconds(120)) != std::future_status::ready)
    fail("replayed solve did not finish within 120 s");
  return future.get();
}

/// The largest request of `backend` in the corpus (probe input).
cnash::core::SolveRequest largest(const std::vector<std::string>& corpus,
                                  const std::string& backend) {
  std::optional<cnash::core::SolveRequest> best;
  for (const std::string& body : corpus) {
    cnash::serve::WireRequest w = cnash::serve::parse_request(body);
    if (w.solve->backend != backend) continue;
    if (!best || w.solve->game.num_actions1() > best->game.num_actions1())
      best = std::move(*w.solve);
  }
  if (!best) fail("workload corpus has no " + backend + " request to probe");
  return std::move(*best);
}

/// Per-call ns of `fn`, median over 5 batches of `calls` calls.
template <class F>
double per_call_ns(cnash::obs::TraceRecorder& tracer, const char* name,
                   std::size_t calls,
                   F&& fn) {
  std::vector<double> batches;
  for (std::size_t b = 0; b < 5; ++b)
    batches.push_back(1e3 * timed_us(tracer, name, kProbeOp + b, [&] {
                        for (std::size_t c = 0; c < calls; ++c) fn();
                      }) /
                      static_cast<double>(calls));
  return median(batches);
}

/// Mean propose / commit ns of an incremental evaluator under random single
/// tick moves (every other proposal committed, as an SA walk near 50%
/// acceptance would).
std::pair<double, double> propose_commit_ns(
    cnash::core::IncrementalEvaluator& ev, const cnash::game::BimatrixGame& g,
    std::uint32_t intervals, Rng& rng, cnash::obs::TraceRecorder& tracer,
    const char* name) {
  using cnash::core::TickMove;
  cnash::game::QuantizedProfile profile{
      cnash::game::QuantizedStrategy::random_support(g.num_actions1(),
                                                     intervals, rng),
      cnash::game::QuantizedStrategy::random_support(g.num_actions2(),
                                                     intervals, rng)};
  ev.reset(profile);
  std::vector<std::uint32_t> counts[2] = {profile.p.counts(), profile.q.counts()};
  constexpr std::size_t kMoves = 4000;
  double propose_ns = 0.0, commit_ns = 0.0;
  std::size_t commits = 0;
  const cnash::obs::Span whole = span(tracer, name, kProbeOp);
  for (std::size_t k = 0; k < kMoves; ++k) {
    const std::size_t who = rng.uniform_index(2);
    std::vector<std::uint32_t>& c = counts[who];
    std::uint32_t from = static_cast<std::uint32_t>(rng.uniform_index(c.size()));
    while (c[from] == 0) from = (from + 1) % static_cast<std::uint32_t>(c.size());
    std::uint32_t to = static_cast<std::uint32_t>(rng.uniform_index(c.size() - 1));
    if (to >= from) ++to;
    const TickMove move{who == 0 ? TickMove::Player::kRow : TickMove::Player::kCol,
                        from, to};
    Clock::time_point t0 = Clock::now();
    volatile double f = ev.propose(&move, 1);
    (void)f;
    propose_ns += 1e9 * seconds_between(t0, Clock::now());
    if (k % 2 == 0) {
      t0 = Clock::now();
      ev.commit();
      commit_ns += 1e9 * seconds_between(t0, Clock::now());
      c[from]--;
      c[to]++;
      commits++;
    }
  }
  return {propose_ns / kMoves, commit_ns / static_cast<double>(commits)};
}

}  // namespace

std::string strip_wall_clock(const std::string& body) {
  static const std::string kField = "\"wall_clock_s\":";
  const std::size_t at = body.find(kField);
  if (at == std::string::npos) return body;
  const std::size_t begin = at + kField.size();
  const std::size_t end = body.find_first_of(",}", begin);
  return body.substr(0, begin) + "0" + body.substr(end);
}

ReplayResult replay(const Captured& captured, const ReplayOptions& options,
                    cnash::obs::TraceRecorder& tracer) {
  ReplayResult result;
  cnash::core::ServiceOptions so;
  so.threads = 2;
  so.telemetry.trace = &tracer;
  cnash::core::SolverService service(so);

  cnash::serve::SolutionCache cache(256u << 20);
  std::unique_ptr<cnash::store::SolutionStore> attached, put_store;
  if (!options.attach_store_dir.empty()) {
    attached = std::make_unique<cnash::store::SolutionStore>(
        options.attach_store_dir);
    cache.attach_store(attached.get());
  }
  if (!options.put_store_dir.empty())
    put_store =
        std::make_unique<cnash::store::SolutionStore>(options.put_store_dir);
  cnash::serve::ParseSession session;

  std::string body;
  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass < options.passes; ++pass)
    for (std::size_t i = 0; i < captured.requests.size(); ++i) {
      const std::uint64_t op = pass * captured.requests.size() + i + 1;
      const cnash::obs::Span op_span = span(tracer, "op", op);
      cnash::serve::WireRequest request;
      {
        const cnash::obs::Span s = span(tracer, "serve.parse_request", op);
        request = cnash::serve::parse_request(captured.requests[i], &session);
      }
      cnash::serve::CanonicalRequest canonical = [&] {
        const cnash::obs::Span s = span(tracer, "serve.canonicalize", op);
        return cnash::serve::canonicalize(std::move(*request.solve));
      }();
      std::shared_ptr<const cnash::core::SolveReport> report;
      {
        const cnash::obs::Span s = span(tracer, "serve.cache_lookup", op);
        report = cache.lookup(canonical.key);
      }
      const bool hit = report != nullptr;
      if (!hit) {
        {
          const cnash::obs::Span s = span(tracer, "core.service_solve", op);
          report = std::make_shared<const cnash::core::SolveReport>(
              solve_traced(service, std::move(canonical.request), op));
        }
        {
          const cnash::obs::Span s = span(tracer, "serve.cache_insert", op);
          cache.insert(canonical.key, report);
        }
        if (put_store) {
          const std::string value = cnash::core::report_to_json(*report).dump();
          const cnash::obs::Span s = span(tracer, "store.put", op);
          put_store->put(canonical.key.digest, canonical.key.blob, value);
        }
      }
      cnash::core::SolveReport mapped;
      {
        const cnash::obs::Span s = span(tracer, "serve.map_to_original", op);
        mapped = cnash::serve::map_to_original(canonical.mapping, *report);
      }
      {
        const cnash::obs::Span s = span(tracer, "serve.render_body", op);
        cnash::serve::render_solve_ok_body(body, request.id, hit, mapped);
      }
      result.response_bytes.push_back(static_cast<double>(body.size()));
      const std::string& expected = captured.responses[i];
      const bool same = captured.byte_exact
                            ? body == expected
                            : strip_wall_clock(body) == strip_wall_clock(expected);
      if (!same) {
        result.mismatches++;
        if (result.problems.size() < 10)
          result.problems.push_back("replayed body differs from the captured "
                                    "response (request " +
                                    request.id.dump() + ")");
      }
    }
  result.wall_s = seconds_between(start, Clock::now());
  service.drain();
  return result;
}

void probe_layers(const RunContext& ctx, const WorkloadOutcome& outcome,
                  cnash::obs::TraceRecorder& tracer, Metrics& layer,
                  Json& record) {
  Rng rng = Rng(ctx.seed).split(0xB0B);
  const cnash::core::SolveRequest hw = largest(outcome.corpus, "hardware-sa");
  const cnash::core::SolveRequest tiled =
      largest(outcome.corpus, "hardware-sa-tiled");
  const cnash::core::SolveRequest exact = largest(outcome.corpus, "exact-sa");
  const std::uint32_t intervals = hw.intervals;
  const std::size_t hw_n = hw.game.num_actions1();
  const std::size_t exact_n = exact.game.num_actions1();
  record.set("hardware_actions", hw_n);
  record.set("tiled_actions", tiled.game.num_actions1());
  record.set("exact_actions", exact_n);
  record.set("intervals", static_cast<std::size_t>(intervals));

  // Crossbar programming: one evaluator instance = one programmed chip.
  const cnash::core::HardwareEvaluatorFactory hw_factory(
      hw.game, intervals, hw.hardware, Rng(hw.seed));
  std::vector<double> program_ms;
  for (std::uint64_t k = 0; k < 5; ++k)
    program_ms.push_back(1e-3 * timed_us(tracer, "xbar.program", kProbeOp + k, [&] {
                           hw_factory.create_hardware(2 * k);
                         }));
  const cnash::chip::TiledEvaluatorFactory tiled_factory(
      tiled.game, intervals, tiled.hardware, tiled.chip, Rng(tiled.seed));
  std::vector<double> chip_ms;
  for (std::uint64_t k = 0; k < 5; ++k)
    chip_ms.push_back(1e-3 * timed_us(tracer, "chip.program", kProbeOp + k, [&] {
                        tiled_factory.create_tiled(2 * k);
                      }));
  layer.add("xbar.program_ms", median(program_ms), "ms");
  layer.add("chip.program_ms", median(chip_ms), "ms");

  // Device-sampling kernels at the programmed array's cell count
  // (actions² × intervals cells per crossbar).
  const std::size_t cells = hw_n * hw_n * intervals;
  record.set("sampling_cells", cells);
  std::vector<double> zv(cells), zr(cells), sum(cells, 0.0);
  Rng sample_rng = rng.split(1);
  cnash::simd::fill_normals(sample_rng, zv.data(), cells);
  cnash::simd::fill_normals(sample_rng, zr.data(), cells);
  const std::size_t sample_calls = std::max<std::size_t>(1, 400000 / cells);
  layer.add("simd.fill_normals_ns",
            per_call_ns(tracer, "simd.fill_normals", sample_calls,
                        [&] { cnash::simd::fill_normals(sample_rng, sum.data(), cells); }),
            "ns");
  const cnash::simd::OnCellParams params{1e-5, -2e-5, -1e-9, 0.03,
                                         0.05, 1e4,   1.0,   0.0};
  layer.add("simd.on_cell_accumulate_ns",
            per_call_ns(tracer, "simd.on_cell_accumulate", sample_calls, [&] {
              cnash::simd::on_cell_accumulate(sum.data(), zv.data(), zr.data(),
                                              nullptr, cells, params);
            }),
            "ns");

  // Evaluator propose/commit and full reads.
  std::unique_ptr<cnash::core::TwoPhaseEvaluator> hw_eval =
      hw_factory.create_hardware(1001);
  Rng move_rng = rng.split(2);
  const auto [hw_propose, hw_commit] = propose_commit_ns(
      *hw_eval, hw.game, intervals, move_rng, tracer, "core.hw_propose_commit");
  cnash::core::ExactMaxQubo exact_eval(exact.game);
  const auto [ex_propose, ex_commit] =
      propose_commit_ns(exact_eval, exact.game, intervals, move_rng, tracer,
                        "core.exact_propose_commit");
  layer.add("core.hw_propose_ns", hw_propose, "ns");
  layer.add("core.hw_commit_ns", hw_commit, "ns");
  layer.add("core.exact_propose_ns", ex_propose, "ns");
  layer.add("core.exact_commit_ns", ex_commit, "ns");
  const cnash::game::QuantizedProfile read_profile{
      cnash::game::QuantizedStrategy::random_support(hw_n, intervals, move_rng),
      cnash::game::QuantizedStrategy::random_support(hw_n, intervals, move_rng)};
  layer.add("core.full_read_us",
            1e-3 * per_call_ns(tracer, "core.full_read", 50, [&] {
              hw_eval->evaluate(read_profile);
            }),
            "us");

  // SA loop on the exact evaluator (the SA-loop-bound jobs' path).
  std::vector<double> iter_ns, accept;
  for (std::uint64_t k = 0; k < 3; ++k) {
    cnash::core::ExactMaxQubo ev(exact.game);
    cnash::core::SaOptions opts = exact.sa;
    opts.iterations = 20000;
    Rng sa_rng = rng.split(100 + k);
    std::size_t iterations = 0, accepted = 0;
    const double us = timed_us(tracer, "core.sa_run", kProbeOp + k, [&] {
      const cnash::core::SaRunResult r =
          cnash::core::simulated_annealing(ev, intervals, opts, sa_rng);
      iterations = r.iterations;
      accepted = r.accepted;
    });
    iter_ns.push_back(1e3 * us / static_cast<double>(iterations));
    accept.push_back(static_cast<double>(accepted) /
                     static_cast<double>(iterations));
  }
  layer.add("core.sa_iter_ns", median(iter_ns), "ns");
  layer.add("core.sa_accept_ratio", mean(accept), "ratio");

  // SIMD reductions at the exact game's vector length.
  std::vector<double> a(exact_n), b(exact_n), y(exact_n, 0.0);
  for (std::size_t i = 0; i < exact_n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  volatile double sink = 0.0;
  layer.add("simd.dot_ns", per_call_ns(tracer, "simd.dot", 20000, [&] {
              sink = sink + cnash::simd::dot(a.data(), b.data(), exact_n);
            }),
            "ns");
  layer.add("simd.axpy_ns", per_call_ns(tracer, "simd.axpy", 20000, [&] {
              cnash::simd::axpy(y.data(), 1e-9, a.data(), exact_n);
            }),
            "ns");

  // Equilibrium verification and D-Wave proxy reads.
  const cnash::la::Vector p = cnash::game::QuantizedStrategy::random_support(
                                  exact_n, intervals, move_rng)
                                  .to_distribution();
  const cnash::la::Vector q = cnash::game::QuantizedStrategy::random_support(
                                  exact_n, intervals, move_rng)
                                  .to_distribution();
  layer.add("game.verify_us",
            1e-3 * per_call_ns(tracer, "game.verify", 2000, [&] {
              sink = sink + cnash::game::check_equilibrium(exact.game, p, q).regret1;
            }),
            "us");
  const cnash::qubo::DWaveProxy proxy(cnash::game::paper_benchmarks()[2].game,
                                      cnash::qubo::dwave_advantage41_config());
  std::vector<double> read_ms;
  for (std::uint64_t k = 0; k < 5; ++k) {
    Rng read_rng = rng.split(200 + k);
    read_ms.push_back(1e-3 * timed_us(tracer, "qubo.read", kProbeOp + k, [&] {
                        proxy.sample_one(read_rng);
                      }));
  }
  layer.add("qubo.read_ms", median(read_ms), "ms");

  // Store: reopen the workload's store (recovery scan), read back the
  // captured keys, write their values into a fresh store.
  std::vector<double> open_s;
  for (std::uint64_t k = 0; k < 3; ++k)
    open_s.push_back(1e-6 * timed_us(tracer, "store.open", kProbeOp + k, [&] {
                       cnash::store::SolutionStore reopened(outcome.store_dir);
                     }));
  layer.add("store.open_s", median(open_s), "s");
  cnash::store::SolutionStore store(outcome.store_dir);
  const std::string fresh_dir = ctx.work_dir + "/probe-put-store";
  fs::remove_all(fresh_dir);
  cnash::store::SolutionStore fresh(fresh_dir);
  // The same reports inserted into a RAM-only cache: the insert cost without
  // the write-through.
  cnash::serve::SolutionCache insert_cache(256u << 20);
  std::vector<double> get_us, put_us, insert_us;
  for (std::size_t i = 0; i < outcome.captured.requests.size(); ++i) {
    cnash::serve::WireRequest w =
        cnash::serve::parse_request(outcome.captured.requests[i]);
    const cnash::serve::CanonicalRequest c =
        cnash::serve::canonicalize(std::move(*w.solve));
    std::optional<std::string> value;
    get_us.push_back(timed_us(tracer, "store.get", kProbeOp + i, [&] {
      value = store.get(c.key.digest, c.key.blob);
    }));
    if (!value) fail("store probe: a captured key is missing from the store");
    put_us.push_back(timed_us(tracer, "store.put", kProbeOp + i, [&] {
      fresh.put(c.key.digest, c.key.blob, *value);
    }));
    const auto report = std::make_shared<const cnash::core::SolveReport>(
        cnash::core::report_from_json(Json::parse(*value)));
    insert_us.push_back(timed_us(tracer, "serve.cache_insert", kProbeOp + i,
                                 [&] { insert_cache.insert(c.key, report); }));
  }
  layer.add("store.get_us", median(get_us), "us");
  layer.add("store.put_us", median(put_us), "us");
  layer.add("store.compression_ratio", fresh.stats().compression_ratio(),
            "ratio");
  layer.add("serve.cache_insert_us", median(insert_us), "us");
}

}  // namespace perfbench

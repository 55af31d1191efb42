#include "core/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "chip/tile_partition.hpp"
#include "chip/tiled_two_phase.hpp"
#include "core/resilient.hpp"
#include "core/timing.hpp"
#include "game/lemke_howson.hpp"
#include "game/support_enum.hpp"
#include "game/verify.hpp"
#include "qubo/dwave_proxy.hpp"

namespace cnash::core {

double SolveReport::nash_rate() const {
  if (samples.empty()) return 0.0;
  return static_cast<double>(nash_count) / static_cast<double>(samples.size());
}

namespace {

/// True when the product of `factors` exceeds `cap`. The running product
/// never exceeds `cap`, so nothing overflows whatever the factors.
bool product_exceeds(std::initializer_list<std::uint64_t> factors,
                     std::uint64_t cap) {
  std::uint64_t product = 1;
  for (const std::uint64_t f : factors) {
    if (f == 0) return false;
    if (product > cap / f) return true;
    product *= f;
  }
  return false;
}

/// The chip-model half of validate_request for a hardware request: maps
/// both arrays (which rejects payoffs that do not code as cells), caps their
/// cell counts, and on a tiled chip cuts them into tiles. A replica-exchange
/// unit programs one chip per replica, so the whole ensemble's cells of each
/// array obey the one-chip cap.
void validate_chip_geometry(const SolveRequest& request, bool tiled) {
  const chip::ArrayGeometry geometry =
      chip::mapped_geometry(request.game, request.intervals, request.hardware);
  const std::uint64_t chips = request.sa.mode == SaMode::kReplicaExchange
                                  ? request.sa.replicas
                                  : 1;
  for (const xbar::MappingGeometry* g : {&geometry.m, &geometry.nt}) {
    if (product_exceeds({chips, g->n, g->intervals, g->m, g->intervals,
                         g->cells_per_element},
                        kMaxArrayCells))
      throw std::invalid_argument(
          "invalid solve request: a crossbar array of this game would exceed " +
          std::to_string(kMaxArrayCells) +
          " cells (n*I word lines x m*I*t bit lines, times sa.replicas under "
          "replica exchange, which programs one chip per replica; t grows "
          "with the largest payoff after shift and scale)");
    if (tiled)  // throws when a tile cannot hold one element block
      chip::TilePartition(*g, request.chip.tile_rows, request.chip.tile_cols);
  }
}

}  // namespace

void validate_request(const SolveRequest& request) {
  if (request.runs == 0)
    throw std::invalid_argument(
        "invalid solve request: runs == 0 (need at least one sample unit)");
  if (request.runs > kMaxRuns)
    throw std::invalid_argument("invalid solve request: runs must be <= " +
                                std::to_string(kMaxRuns));
  if (request.game.num_actions1() == 0 || request.game.num_actions2() == 0)
    throw std::invalid_argument("invalid solve request: empty game");
  if (request.intervals == 0)
    throw std::invalid_argument(
        "invalid solve request: intervals == 0 (need at least one "
        "probability tick)");
  if (!std::isfinite(request.deadline_s) || request.deadline_s < 0.0)
    throw std::invalid_argument(
        "invalid solve request: deadline_s must be finite and >= 0 "
        "(0 disables the deadline)");
  const auto check_rate = [](double v, const char* name) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0)
      throw std::invalid_argument(std::string("invalid solve request: fault.") +
                                  name + " must be in [0, 1]");
  };
  check_rate(request.fault.unit_failure_rate, "unit_failure_rate");
  check_rate(request.fault.tile_failure_rate, "tile_failure_rate");
  check_rate(request.fault.unit_delay_rate, "unit_delay_rate");
  if (!std::isfinite(request.fault.unit_delay_s) ||
      request.fault.unit_delay_s < 0.0)
    throw std::invalid_argument(
        "invalid solve request: fault.unit_delay_s must be finite and >= 0");
  if (request.fault.solver_faults() && request.backend != "resilient")
    throw std::invalid_argument(
        "invalid solve request: fault injection is only accepted by the "
        "\"resilient\" backend (backend \"" +
        request.backend + "\" has no fallback path)");
  if (request.backend == "resilient" &&
      request.resilient_primary != "hardware-sa" &&
      request.resilient_primary != "hardware-sa-tiled")
    throw std::invalid_argument(
        "invalid solve request: resilient primary must be \"hardware-sa\" or "
        "\"hardware-sa-tiled\", not \"" +
        request.resilient_primary + "\"");
  if (request.sa.mode == SaMode::kReplicaExchange) {
    if (request.sa.replicas < 2 || request.sa.replicas > kMaxReplicas)
      throw std::invalid_argument(
          "invalid solve request: replica-exchange needs 2 <= sa.replicas <= " +
          std::to_string(kMaxReplicas));
    if (request.sa.exchange_interval == 0)
      throw std::invalid_argument(
          "invalid solve request: sa.exchange_interval must be >= 1");
    if (!(request.sa.ladder_ratio > 1.0))
      throw std::invalid_argument(
          "invalid solve request: sa.ladder_ratio must be > 1");
  }
  for (const la::Matrix* m : {&request.game.payoff1(), &request.game.payoff2()})
    for (std::size_t r = 0; r < m->rows(); ++r)
      for (std::size_t c = 0; c < m->cols(); ++c)
        if (!std::isfinite((*m)(r, c)))
          throw std::invalid_argument(
              "invalid solve request: non-finite payoff in game \"" +
              request.game.name() + "\"");
  const std::string& hardware = request.backend == "resilient"
                                    ? request.resilient_primary
                                    : request.backend;
  const bool on_chip =
      hardware == "hardware-sa" || hardware == "hardware-sa-tiled";
  if ((on_chip || request.backend == "exact-sa") && request.sa.iterations == 0)
    throw std::invalid_argument(
        "invalid solve request: sa.iterations == 0 (an SA backend needs at "
        "least one iteration)");
  if (on_chip) validate_chip_geometry(request, hardware == "hardware-sa-tiled");
}

void verify_samples(const game::BimatrixGame& game, double nash_eps,
                    std::vector<SolveSample>& samples) {
  for (SolveSample& s : samples) {
    if (!s.valid) {
      s.is_nash = false;
      s.regret = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    const game::NashCheck check =
        game::check_equilibrium(game, s.p, s.q, nash_eps);
    s.is_nash = check.is_equilibrium;
    s.regret = std::max(check.regret1, check.regret2);
  }
}

void summarize(SolveReport& report) {
  report.nash_count = 0;
  report.valid_count = 0;
  report.fallback_count = 0;
  report.re_swap_proposals = 0;
  report.re_swap_accepts = 0;
  double best = std::numeric_limits<double>::quiet_NaN();
  for (const SolveSample& s : report.samples) {
    if (s.is_nash) ++report.nash_count;
    if (s.fallback) ++report.fallback_count;
    report.re_swap_proposals += s.swap_proposals;
    report.re_swap_accepts += s.swap_accepts;
    if (!s.valid) continue;
    ++report.valid_count;
    if (std::isnan(best) || s.objective < best) best = s.objective;
  }
  report.best_objective = best;
}

SolveReport assemble_report(const PreparedJob& job,
                            std::vector<std::vector<SolveSample>> slots) {
  SolveReport report;
  report.backend = job.backend_name;
  report.game_name = job.game_name;
  report.modeled_time_s = job.modeled_time_s;
  std::size_t total = 0;
  for (const auto& slot : slots) total += slot.size();
  report.samples.reserve(total);
  for (auto& slot : slots)
    for (SolveSample& s : slot) report.samples.push_back(std::move(s));
  job.finalize(report);
  summarize(report);
  return report;
}

SolveReport SolverBackend::solve(const SolveRequest& request) const {
  const auto t0 = std::chrono::steady_clock::now();
  validate_request(request);
  const std::unique_ptr<PreparedJob> job = prepare(request);
  std::vector<std::vector<SolveSample>> slots(job->num_units());
  for (std::size_t u = 0; u < slots.size(); ++u) slots[u] = job->run_unit(u);
  SolveReport report = assemble_report(*job, std::move(slots));
  report.units_total = job->num_units();
  report.units_completed = job->num_units();
  report.wall_clock_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  return report;
}

// ---- SA backends (hardware-sa / hardware-sa-tiled / exact-sa) ---------------

SaPreparedJob::SaPreparedJob(std::shared_ptr<const EvaluatorFactory> factory,
                             std::uint32_t intervals, SaOptions sa,
                             bool report_best, std::uint64_t seed,
                             std::size_t num_runs, double nash_eps)
    : factory_(std::move(factory)),
      intervals_(intervals),
      sa_(sa),
      report_best_(report_best),
      root_(seed),
      num_runs_(num_runs),
      nash_eps_(nash_eps) {
  if (!factory_) throw std::invalid_argument("SaPreparedJob: null factory");
  if (sa_.mode == SaMode::kReplicaExchange) {
    if (sa_.replicas < 2)
      throw std::invalid_argument("SaPreparedJob: sa.replicas must be >= 2");
    if (sa_.exchange_interval == 0)
      throw std::invalid_argument(
          "SaPreparedJob: sa.exchange_interval must be >= 1");
    if (!(sa_.ladder_ratio > 1.0))
      throw std::invalid_argument(
          "SaPreparedJob: sa.ladder_ratio must be > 1");
  }
  game_name = factory_->game().name();
}

namespace {

SolveSample sa_sample(const SaRunResult& res, bool report_best) {
  const game::QuantizedProfile& chosen =
      report_best ? res.best_profile : res.final_profile;
  SolveSample s;
  s.p = chosen.p.to_distribution();
  s.q = chosen.q.to_distribution();
  s.objective = report_best ? res.best_objective : res.final_objective;
  s.profile = chosen;
  // Zero for independent-mode runs; replica exchange stamps the ensemble
  // totals on every replica, so the winner carries them.
  s.swap_proposals = res.swap_proposals;
  s.swap_accepts = res.swap_accepts;
  return s;
}

}  // namespace

std::size_t SaPreparedJob::num_units() const {
  if (sa_.mode == SaMode::kReplicaExchange) return num_runs_;
  const std::size_t k = std::max<std::size_t>(1, sa_.batch_lanes);
  return (num_runs_ + k - 1) / k;
}

std::vector<SolveSample> SaPreparedJob::run_unit(std::size_t unit) const {
  return sa_.mode == SaMode::kReplicaExchange ? run_ensemble_unit(unit)
                                              : run_independent_unit(unit);
}

std::vector<SolveSample> SaPreparedJob::run_independent_unit(
    std::size_t unit) const {
  // Even keys address evaluator instances, odd keys SA streams, so the two
  // families can never alias across runs. One run's evaluator (for the
  // hardware backends, one programmed chip) is alive at a time.
  const std::size_t k = std::max<std::size_t>(1, sa_.batch_lanes);
  const std::size_t first = unit * k;
  const std::size_t count = std::min(k, num_runs_ - first);
  std::vector<SolveSample> out;
  out.reserve(count);
  for (std::size_t r = first; r < first + count; ++r) {
    const std::unique_ptr<ObjectiveEvaluator> objective =
        factory_->create(2 * r);
    util::Rng rng = root_.split(2 * r + 1);
    out.push_back(sa_sample(
        simulated_annealing(*objective, intervals_, sa_, rng), report_best_));
  }
  verify_samples(factory_->game(), nash_eps_, out);
  return out;
}

std::vector<SolveSample> SaPreparedJob::run_ensemble_unit(
    std::size_t unit) const {
  const std::uint64_t e = unit;
  const std::size_t r = sa_.replicas;
  const std::uint64_t stride = static_cast<std::uint64_t>(r) + 1;
  std::vector<std::unique_ptr<ObjectiveEvaluator>> replicas;
  std::vector<util::Rng> rngs;
  replicas.reserve(r);
  rngs.reserve(r);
  for (std::size_t l = 0; l < r; ++l) {
    replicas.push_back(factory_->create(2 * (e * stride + l)));
    rngs.push_back(root_.split(2 * (e * stride + l) + 1));
  }
  util::Rng swap_rng = root_.split(2 * (e * stride + r) + 1);
  const std::vector<SaRunResult> results = simulated_annealing_replica_exchange(
      replicas, intervals_, sa_, rngs.data(), swap_rng);
  // The ensemble reports its winning replica (ties to the lowest replica
  // index for determinism).
  std::size_t win = 0;
  auto score = [&](const SaRunResult& res) {
    return report_best_ ? res.best_objective : res.final_objective;
  };
  for (std::size_t l = 1; l < results.size(); ++l)
    if (score(results[l]) < score(results[win])) win = l;
  std::vector<SolveSample> out{sa_sample(results[win], report_best_)};
  verify_samples(factory_->game(), nash_eps_, out);
  return out;
}

namespace {

/// The SA backends. "hardware-sa" and "hardware-sa-tiled" share one
/// evaluator factory and one prepare path: both take the array geometry from
/// the game's CrossbarMapping, so preparing a job programs no chip.
/// "hardware-sa" is the one-tile chip sized to hold both arrays whole — it
/// ignores request.chip and request.fault, and models the latency of the
/// plain M array.
class SaBackend final : public SolverBackend {
 public:
  enum class Kind { kHardware, kTiled, kExact };

  SaBackend(Kind kind, std::string name, std::string description)
      : kind_(kind),
        name_(std::move(name)),
        description_(std::move(description)) {}

  const std::string& name() const override { return name_; }
  std::string describe() const override { return description_; }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    std::shared_ptr<const EvaluatorFactory> factory;
    double modeled = 0.0;
    if (kind_ == Kind::kExact) {
      factory = std::make_shared<ExactEvaluatorFactory>(request.game);
    } else {
      const chip::ArrayGeometry geometry = chip::mapped_geometry(
          request.game, request.intervals, request.hardware);
      const CNashTimingModel timing;
      if (kind_ == Kind::kHardware) {
        modeled = timing.run_time_s(geometry.m, request.sa.iterations);
        factory = std::make_shared<HardwareEvaluatorFactory>(
            request.game, request.intervals, request.hardware,
            chip::single_tile_chip(geometry), util::Rng(request.seed));
      } else {
        const chip::TilePartition part(geometry.m, request.chip.tile_rows,
                                       request.chip.tile_cols);
        TileGridTiming grid;
        grid.tile_rows = request.chip.tile_rows;
        grid.tile_cols = request.chip.tile_cols;
        grid.grid_rows = part.grid_rows();
        grid.grid_cols = part.grid_cols();
        grid.wta_inputs = request.game.num_actions1();
        modeled = timing.tiled_run_time_s(grid, request.sa.iterations);
        factory = std::make_shared<HardwareEvaluatorFactory>(
            request.game, request.intervals, request.hardware, request.chip,
            util::Rng(request.seed), request.fault);
      }
      modeled *= static_cast<double>(request.runs);
    }
    auto job = std::make_unique<SaPreparedJob>(
        std::move(factory), request.intervals, request.sa, request.report_best,
        request.seed, request.runs, request.nash_eps);
    job->backend_name = name_;
    job->modeled_time_s = modeled;
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  Kind kind_;
  std::string name_;
  std::string description_;
};

// ---- D-Wave proxy backends --------------------------------------------------

class DWaveJob final : public PreparedJob {
 public:
  DWaveJob(const game::BimatrixGame& game, qubo::DWaveConfig config,
           std::size_t reads, std::uint64_t seed, double nash_eps)
      : proxy_(game, std::move(config)),
        root_(seed),
        reads_(reads),
        nash_eps_(nash_eps) {}

  std::size_t num_units() const override { return reads_; }

  std::vector<SolveSample> run_unit(std::size_t unit) const override {
    // One annealer read per unit on its own keyed stream, so reads are
    // reproducible regardless of which worker performs them.
    util::Rng rng = root_.split(unit);
    std::vector<SolveSample> out;
    out.push_back(proxy_.sample_one(rng));
    verify_samples(proxy_.game(), nash_eps_, out);
    return out;
  }

 private:
  qubo::DWaveProxy proxy_;
  util::Rng root_;  // keyed splits only — never advanced
  std::size_t reads_;
  double nash_eps_;
};

class DWaveBackend final : public SolverBackend {
 public:
  DWaveBackend(std::string name, qubo::DWaveConfig (*config)(),
               DWaveTimingParams (*timing)())
      : name_(std::move(name)), config_(config), timing_(timing) {}

  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return config_().name +
           ": S-QUBO annealer proxy, pure strategies only "
           "(runs = reads, seed)";
  }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    auto job = std::make_unique<DWaveJob>(request.game, config_(),
                                          request.runs, request.seed,
                                          request.nash_eps);
    const DWaveTimingParams timing = timing_();
    job->backend_name = name_;
    job->game_name = request.game.name();
    job->modeled_time_s = timing.programming_s +
                          timing.per_sample_s *
                              static_cast<double>(request.runs);
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_;
  qubo::DWaveConfig (*config_)();
  DWaveTimingParams (*timing_)();
};

// ---- Exact ground-truth backends --------------------------------------------

SolveSample equilibrium_sample(const game::BimatrixGame& game,
                               const game::Equilibrium& eq, double nash_eps) {
  SolveSample s;
  s.p = eq.p;
  s.q = eq.q;
  s.objective = game::equilibrium_gap(game, eq.p, eq.q);
  std::vector<SolveSample> one{std::move(s)};
  verify_samples(game, nash_eps, one);
  return std::move(one.front());
}

class LemkeHowsonJob final : public PreparedJob {
 public:
  LemkeHowsonJob(game::BimatrixGame game, double nash_eps)
      : game_(std::move(game)),
        labels_(game_.num_actions1() + game_.num_actions2()),
        nash_eps_(nash_eps) {}

  std::size_t num_units() const override { return labels_; }

  std::vector<SolveSample> run_unit(std::size_t unit) const override {
    const std::optional<game::Equilibrium> eq =
        game::lemke_howson(game_, unit);
    if (!eq) return {};
    return {equilibrium_sample(game_, *eq, nash_eps_)};
  }

  void finalize(SolveReport& report) const override {
    // Different initial labels often pivot to the same equilibrium; keep the
    // first occurrence in label order (deterministic).
    std::vector<SolveSample> unique;
    for (SolveSample& s : report.samples) {
      const bool seen = std::any_of(
          unique.begin(), unique.end(), [&](const SolveSample& u) {
            if (u.p.size() != s.p.size() || u.q.size() != s.q.size())
              return false;
            for (std::size_t i = 0; i < u.p.size(); ++i)
              if (std::abs(u.p[i] - s.p[i]) > 1e-6) return false;
            for (std::size_t j = 0; j < u.q.size(); ++j)
              if (std::abs(u.q[j] - s.q[j]) > 1e-6) return false;
            return true;
          });
      if (!seen) unique.push_back(std::move(s));
    }
    report.samples = std::move(unique);
  }

 private:
  game::BimatrixGame game_;
  std::size_t labels_;
  double nash_eps_;
};

class LemkeHowsonBackend final : public SolverBackend {
 public:
  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return "Lemke-Howson complementary pivoting from every initial label, "
           "deduplicated (runs/seed ignored)";
  }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    auto job = std::make_unique<LemkeHowsonJob>(request.game,
                                                request.nash_eps);
    job->backend_name = name_;
    job->game_name = request.game.name();
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_ = "lemke-howson";
};

class SupportEnumJob final : public PreparedJob {
 public:
  SupportEnumJob(game::BimatrixGame game, double nash_eps)
      : game_(std::move(game)), nash_eps_(nash_eps) {}

  std::size_t num_units() const override { return 1; }

  std::vector<SolveSample> run_unit(std::size_t) const override {
    const game::SupportEnumResult result = game::support_enumeration(game_);
    std::vector<SolveSample> out;
    out.reserve(result.equilibria.size());
    for (const game::Equilibrium& eq : result.equilibria)
      out.push_back(equilibrium_sample(game_, eq, nash_eps_));
    return out;
  }

 private:
  game::BimatrixGame game_;
  double nash_eps_;
};

class SupportEnumBackend final : public SolverBackend {
 public:
  const std::string& name() const override { return name_; }

  std::string describe() const override {
    return "exhaustive support enumeration, the ground-truth solver "
           "(runs/seed ignored)";
  }

  std::unique_ptr<PreparedJob> prepare(
      const SolveRequest& request) const override {
    auto job = std::make_unique<SupportEnumJob>(request.game,
                                                request.nash_eps);
    job->backend_name = name_;
    job->game_name = request.game.name();
    job->max_parallelism = request.max_parallelism;
    return job;
  }

 private:
  std::string name_ = "support-enum";
};

}  // namespace

// ---- Registry ---------------------------------------------------------------

void SolverRegistry::add(std::unique_ptr<SolverBackend> backend) {
  if (!backend) throw std::invalid_argument("SolverRegistry: null backend");
  if (find(backend->name()))
    throw std::invalid_argument("SolverRegistry: duplicate backend \"" +
                                backend->name() + "\"");
  backends_.push_back(std::move(backend));
}

const SolverBackend* SolverRegistry::find(const std::string& name) const {
  for (const auto& b : backends_)
    if (b->name() == name) return b.get();
  return nullptr;
}

const SolverBackend& SolverRegistry::at(const std::string& name) const {
  if (const SolverBackend* b = find(name)) return *b;
  std::string known;
  for (const auto& b : backends_) {
    if (!known.empty()) known += ", ";
    known += b->name();
  }
  throw std::invalid_argument("unknown solver backend \"" + name +
                              "\" (registered: " + known + ")");
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) out.push_back(b->name());
  return out;
}

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry;
    r->add(std::make_unique<SaBackend>(
        SaBackend::Kind::kHardware, "hardware-sa",
        "two-phase SA on the full FeFET crossbar/WTA/ADC model "
        "(runs, seed, intervals, sa, hardware, report_best)"));
    r->add(std::make_unique<SaBackend>(
        SaBackend::Kind::kTiled, "hardware-sa-tiled",
        "two-phase SA sharded across a grid of fixed-capacity crossbar tiles "
        "with H-tree aggregation (runs, seed, intervals, sa, hardware, chip, "
        "report_best)"));
    r->add(std::make_unique<SaBackend>(
        SaBackend::Kind::kExact, "exact-sa",
        "two-phase SA on the exact MAX-QUBO objective, ablation "
        "(runs, seed, intervals, sa, report_best)"));
    r->add(std::make_unique<DWaveBackend>(
        "dwave-2000q6", qubo::dwave_2000q6_config, dwave_2000q6_timing));
    r->add(std::make_unique<DWaveBackend>("dwave-advantage41",
                                          qubo::dwave_advantage41_config,
                                          dwave_advantage41_timing));
    r->add(std::make_unique<LemkeHowsonBackend>());
    r->add(std::make_unique<SupportEnumBackend>());
    r->add(make_resilient_backend());
    return r;
  }();
  return *registry;
}

}  // namespace cnash::core

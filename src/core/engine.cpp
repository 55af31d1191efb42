#include "core/engine.hpp"

#include <stdexcept>

#include "core/backend.hpp"
#include "core/service.hpp"

namespace cnash::core {

// ---- Factories --------------------------------------------------------------

std::unique_ptr<BatchedEvaluator> EvaluatorFactory::create_batched(
    const std::uint64_t* instance_keys, std::size_t lanes) const {
  std::vector<std::unique_ptr<ObjectiveEvaluator>> v;
  v.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) v.push_back(create(instance_keys[l]));
  return std::make_unique<LaneBatchedEvaluator>(std::move(v));
}

ExactEvaluatorFactory::ExactEvaluatorFactory(game::BimatrixGame game)
    : shared_(std::make_shared<const ExactMaxQubo::Shared>(std::move(game))) {}

std::unique_ptr<ObjectiveEvaluator> ExactEvaluatorFactory::create(
    std::uint64_t) const {
  return std::make_unique<ExactMaxQubo>(shared_);
}

std::unique_ptr<BatchedEvaluator> ExactEvaluatorFactory::create_batched(
    const std::uint64_t*, std::size_t lanes) const {
  return std::make_unique<BatchedExactMaxQubo>(shared_, lanes);
}

HardwareEvaluatorFactory::HardwareEvaluatorFactory(
    game::BimatrixGame game, std::uint32_t intervals, TwoPhaseConfig config,
    chip::ChipConfig chip, util::Rng device_rng, util::FaultPlan fault)
    : game_(std::move(game)),
      intervals_(intervals),
      config_(config),
      chip_(chip),
      device_rng_(device_rng),
      fault_(fault) {}

std::unique_ptr<ObjectiveEvaluator> HardwareEvaluatorFactory::create(
    std::uint64_t key) const {
  return create_hardware(key);
}

std::unique_ptr<chip::TiledTwoPhaseEvaluator>
HardwareEvaluatorFactory::create_hardware(std::uint64_t key) const {
  // A plan with no tile failures injects nothing and draws no RNG.
  const util::FaultPlan plan = fault_.for_instance(key);
  return std::make_unique<chip::TiledTwoPhaseEvaluator>(
      game_, intervals_, config_, chip_, device_rng_.split(key), &plan);
}

// ---- SolverEngine -----------------------------------------------------------

SolverEngine::SolverEngine(std::shared_ptr<const EvaluatorFactory> factory,
                           EngineOptions options)
    : factory_(std::move(factory)), options_(options) {
  if (!factory_) throw std::invalid_argument("SolverEngine: null factory");
}

SolveSample SolverEngine::solve_once() { return std::move(run(1).front()); }

std::vector<SolveSample> SolverEngine::run(std::size_t num_runs) {
  const std::uint64_t base = next_run_;
  next_run_ += num_runs;
  if (num_runs == 0) return {};

  // One job on the shared service pool, capped at this engine's `threads`;
  // base_run continues the run-index sequence so consecutive batches replay
  // the exact per-run streams of one big batch.
  auto job = std::make_unique<SaPreparedJob>(
      factory_, options_.intervals, options_.sa, options_.report_best,
      options_.seed, num_runs, base);
  job->backend_name = "engine";
  job->max_parallelism = options_.threads;
  SolveReport report =
      SolverService::shared().submit_prepared(std::move(job)).get();
  return std::move(report.samples);
}

}  // namespace cnash::core

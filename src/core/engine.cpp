#include "core/engine.hpp"

namespace cnash::core {

ExactEvaluatorFactory::ExactEvaluatorFactory(game::BimatrixGame game)
    : shared_(std::make_shared<const ExactMaxQubo::Shared>(std::move(game))) {}

std::unique_ptr<ObjectiveEvaluator> ExactEvaluatorFactory::create(
    std::uint64_t) const {
  return std::make_unique<ExactMaxQubo>(shared_);
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

}  // namespace cnash::core

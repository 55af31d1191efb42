#pragma once
// Evaluator factories: fresh, thread-confined objective evaluators for the
// SA backends' work units.
//
// The paper's headline numbers (Table 1 success rate, Fig. 10
// time-to-solution) aggregate many INDEPENDENT annealing runs, and each run
// gets its own evaluator instance: the hardware model is mutable (sampled
// device variability, ADC noise draws), so an instance is never shared
// between runs or threads. An independent run's instance lives only as long
// as the run; a replica-exchange ensemble holds one per replica.
// SaPreparedJob (core/backend.hpp) addresses every run's instance and SA
// stream by key (its comment lists the scheme); the keys are derived from the
// run index rather than from scheduling, so a report is bit-identical for ANY
// worker count and batch_lanes value.

#include <cstdint>
#include <memory>

#include "chip/chip_config.hpp"
#include "chip/tiled_two_phase.hpp"
#include "core/anneal.hpp"
#include "core/two_phase.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace cnash::core {

/// The hardware evaluator, by the name perfbench/src/layers.cpp uses.
using TwoPhaseEvaluator = chip::TiledTwoPhaseEvaluator;

/// Creates fresh, thread-confined evaluator instances for the service's
/// workers. `instance_key` addresses the instance's RNG stream
/// deterministically — the same key always yields an identically-behaving
/// instance (same sampled device variability, same noise stream).
class EvaluatorFactory {
 public:
  virtual ~EvaluatorFactory() = default;
  virtual const game::BimatrixGame& game() const = 0;
  virtual std::unique_ptr<ObjectiveEvaluator> create(
      std::uint64_t instance_key) const = 0;
};

/// Exact software objective (ablation backend). Instances are stateless
/// w.r.t. the key — every instance evaluates Eq. 9 identically — and all
/// instances the factory creates share one read-only payoff block (game +
/// transposed copies).
class ExactEvaluatorFactory final : public EvaluatorFactory {
 public:
  explicit ExactEvaluatorFactory(game::BimatrixGame game);
  const game::BimatrixGame& game() const override { return shared_->game; }
  std::unique_ptr<ObjectiveEvaluator> create(std::uint64_t) const override;

 private:
  std::shared_ptr<const ExactMaxQubo::Shared> shared_;
};

/// The hardware model behind "hardware-sa" and "hardware-sa-tiled": each
/// instance programs its own tiled bi-crossbar / WTA / ADC stack with device
/// variability sampled from the keyed split of `device_rng` — the
/// Monte-Carlo-over-chips view of the architecture.
class HardwareEvaluatorFactory final : public EvaluatorFactory {
 public:
  /// `fault` (default disabled) is re-keyed per instance — create(key) rolls
  /// tile failures under fault.for_instance(key) — so the same run fails the
  /// same way on every retry/worker, independently of the other runs.
  HardwareEvaluatorFactory(game::BimatrixGame game, std::uint32_t intervals,
                           TwoPhaseConfig config, chip::ChipConfig chip,
                           util::Rng device_rng, util::FaultPlan fault = {});
  /// "hardware-sa"'s factory: the game on chip::single_tile_chip(). Also
  /// the constructor perfbench/src/layers.cpp uses.
  HardwareEvaluatorFactory(const game::BimatrixGame& game,
                           std::uint32_t intervals, TwoPhaseConfig config,
                           util::Rng device_rng)
      : HardwareEvaluatorFactory(
            game, intervals, config,
            chip::single_tile_chip(
                chip::mapped_geometry(game, intervals, config)),
            device_rng) {}

  const game::BimatrixGame& game() const override { return game_; }
  std::uint32_t intervals() const { return intervals_; }
  std::unique_ptr<ObjectiveEvaluator> create(std::uint64_t key) const override;
  /// Typed variant for tile-grid / WTA / ADC introspection.
  std::unique_ptr<chip::TiledTwoPhaseEvaluator> create_hardware(
      std::uint64_t key) const;
  /// create_hardware() by the name perfbench/src/layers.cpp uses.
  std::unique_ptr<chip::TiledTwoPhaseEvaluator> create_tiled(
      std::uint64_t key) const {
    return create_hardware(key);
  }

 private:
  game::BimatrixGame game_;
  std::uint32_t intervals_;
  TwoPhaseConfig config_;
  chip::ChipConfig chip_;
  util::Rng device_rng_;
  util::FaultPlan fault_;
};

}  // namespace cnash::core

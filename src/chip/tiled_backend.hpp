#pragma once
// The "hardware-sa-tiled" backend shares its evaluator factory and prepare
// path with "hardware-sa" (core/engine.hpp, core/backend.cpp); this header
// only keeps the factory's chip-side name.

#include "core/engine.hpp"

namespace cnash::chip {

/// core::HardwareEvaluatorFactory by the name perfbench/src/layers.cpp uses.
using TiledEvaluatorFactory = core::HardwareEvaluatorFactory;

}  // namespace cnash::chip

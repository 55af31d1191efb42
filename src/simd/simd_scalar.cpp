// Baseline kernel variant: compiled with the project's default architecture
// flags (plus -ffp-contract=off) — runs on any x86-64 and is the reference
// the AVX variants must match bit-for-bit.

#include <bit>
#include <cmath>
#include <cstring>

#include "simd/simd_table.hpp"

#define CNASH_SIMD_NS scalar_isa
#include "simd/kernels.inc"

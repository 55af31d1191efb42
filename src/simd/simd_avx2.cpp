// AVX2 kernel variant: same source as simd_scalar.cpp, compiled with -mavx2
// -ffp-contract=off (see CMakeLists.txt). Only built when CNASH_SIMD=ON.

#include <bit>
#include <cmath>
#include <cstring>

#include "simd/simd_table.hpp"

#define CNASH_SIMD_NS avx2_isa
#include "simd/kernels.inc"

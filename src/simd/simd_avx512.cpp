// AVX-512 kernel variant: same source as simd_scalar.cpp, compiled with
// -mavx512f -mavx512dq -mavx512vl -ffp-contract=off (see CMakeLists.txt).
// -ffp-contract=off is load-bearing here: AVX-512 implies FMA and GCC would
// otherwise contract a*b+c, changing bits versus the scalar variant. Only
// built when CNASH_SIMD=ON.

#include <bit>
#include <cmath>
#include <cstring>

#include "simd/simd_table.hpp"

#define CNASH_SIMD_NS avx512_isa
#include "simd/kernels.inc"

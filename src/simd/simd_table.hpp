#pragma once
// Internal: the per-ISA kernel function table. Each ISA translation unit
// (simd_scalar.cpp / simd_avx2.cpp / simd_avx512.cpp) compiles the shared
// kernel bodies from kernels.inc into its own namespace and exports one
// KernelTable; simd.cpp selects the table at runtime.

#include <cstddef>

#include "simd/simd.hpp"

namespace cnash::simd {

struct KernelTable {
  void (*accumulate)(double*, const double*, std::size_t);
  void (*add_diff)(double*, const double*, const double*, std::size_t);
  void (*add_scaled_diff)(double*, const double*, const double*, double,
                          std::size_t);
  void (*axpy)(double*, double, const double*, std::size_t);
  void (*axpy_skip)(double*, double, const double*, std::size_t, std::size_t);
  double (*dot)(const double*, const double*, std::size_t);
  void (*normal_pairs)(const std::uint64_t*, double*, std::size_t);
  void (*off_cell_accumulate)(double*, const double*, std::size_t, double,
                              double);
  void (*on_cell_accumulate)(double*, const double*, const double*,
                             const double*, std::size_t, const OnCellParams&);
};

namespace scalar_isa {
extern const KernelTable kTable;
}
#if defined(CNASH_SIMD_ISA)
namespace avx2_isa {
extern const KernelTable kTable;
}
namespace avx512_isa {
extern const KernelTable kTable;
}
#endif

}  // namespace cnash::simd

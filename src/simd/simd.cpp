// Runtime dispatch for the simd:: kernels: pick the widest ISA variant the
// CPU supports (unless CNASH_FORCE_SCALAR or force_level() pins one) and
// route every public kernel through a function-pointer table. Because all
// variants are bit-identical, switching levels never changes results — only
// throughput.

#include "simd/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "simd/simd_table.hpp"

namespace cnash::simd {
namespace {

const KernelTable* table_for(IsaLevel level) {
#if defined(CNASH_SIMD_ISA)
  switch (level) {
    case IsaLevel::kAvx512:
      return &avx512_isa::kTable;
    case IsaLevel::kAvx2:
      return &avx2_isa::kTable;
    case IsaLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return &scalar_isa::kTable;
}

IsaLevel detect_max_level() {
#if defined(CNASH_SIMD_ISA) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl"))
    return IsaLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
#endif
  return IsaLevel::kScalar;
}

IsaLevel initial_level() {
  const char* force = std::getenv("CNASH_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && force[0] != '0')
    return IsaLevel::kScalar;
  return detect_max_level();
}

struct Dispatch {
  std::atomic<const KernelTable*> table;
  std::atomic<int> level;
  Dispatch() {
    const IsaLevel l = initial_level();
    level.store(static_cast<int>(l), std::memory_order_relaxed);
    table.store(table_for(l), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

const KernelTable& active() {
  return *dispatch().table.load(std::memory_order_acquire);
}

}  // namespace

const char* level_name(IsaLevel level) {
  switch (level) {
    case IsaLevel::kAvx512:
      return "avx512";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kScalar:
      break;
  }
  return "scalar";
}

IsaLevel max_supported_level() {
  static const IsaLevel level = detect_max_level();
  return level;
}

IsaLevel active_level() {
  return static_cast<IsaLevel>(
      dispatch().level.load(std::memory_order_acquire));
}

bool force_level(IsaLevel level) {
  if (static_cast<int>(level) > static_cast<int>(max_supported_level()))
    return false;
  Dispatch& d = dispatch();
  d.level.store(static_cast<int>(level), std::memory_order_release);
  d.table.store(table_for(level), std::memory_order_release);
  return true;
}

void accumulate(double* y, const double* x, std::size_t n) {
  active().accumulate(y, x, n);
}

void add_diff(double* y, const double* a, const double* b, std::size_t n) {
  active().add_diff(y, a, b, n);
}

void add_scaled_diff(double* y, const double* a, const double* b, double t,
                     std::size_t n) {
  active().add_scaled_diff(y, a, b, t, n);
}

void axpy(double* y, double s, const double* x, std::size_t n) {
  active().axpy(y, s, x, n);
}

void axpy_skip(double* y, double s, const double* x, std::size_t n,
               std::size_t skip) {
  active().axpy_skip(y, s, x, n, skip);
}

double dot(const double* a, const double* b, std::size_t n) {
  return active().dot(a, b, n);
}

void fill_normals(util::Rng& rng, double* out, std::size_t n) {
  // Draw raw uniforms serially in one bulk call (the generator is inherently
  // sequential), then hand whole chunks of pairs to the vectorized Box-Muller
  // kernel.
  constexpr std::size_t kPairChunk = 128;
  std::uint64_t raw[2 * kPairChunk];
  double vals[2 * kPairChunk];
  const KernelTable& k = active();
  std::size_t produced = 0;
  while (produced < n) {
    const std::size_t want = n - produced;
    const std::size_t pairs = std::min(kPairChunk, (want + 1) / 2);
    rng.fill(raw, 2 * pairs);
    k.normal_pairs(raw, vals, pairs);
    const std::size_t take = std::min(want, 2 * pairs);
    std::copy_n(vals, take, out + produced);
    produced += take;
  }
}

void off_cell_accumulate(double* sum, const double* zv, std::size_t n,
                         double i_off0, double c) {
  active().off_cell_accumulate(sum, zv, n, i_off0, c);
}

void on_cell_accumulate(double* sum, const double* zv, const double* zr,
                        const double* zm, std::size_t n,
                        const OnCellParams& p) {
  active().on_cell_accumulate(sum, zv, zr, zm, n, p);
}

}  // namespace cnash::simd

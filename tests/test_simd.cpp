#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "simd/simd.hpp"
#include "util/rng.hpp"

namespace cnash::simd {
namespace {

// Pins dispatch to `level` for one test body, restoring the best supported
// level on destruction so test order never leaks a forced level.
class ScopedLevel {
 public:
  explicit ScopedLevel(IsaLevel level) : ok_(force_level(level)) {}
  ~ScopedLevel() { force_level(max_supported_level()); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

std::vector<IsaLevel> available_levels() {
  std::vector<IsaLevel> out{IsaLevel::kScalar};
  if (max_supported_level() >= IsaLevel::kAvx2) out.push_back(IsaLevel::kAvx2);
  if (max_supported_level() >= IsaLevel::kAvx512)
    out.push_back(IsaLevel::kAvx512);
  return out;
}

std::vector<double> random_vec(util::Rng& rng, std::size_t n, double lo = -2.0,
                               double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a[i], 8);
    std::memcpy(&bb, &b[i], 8);
    ASSERT_EQ(ba, bb) << what << " diverges at index " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

TEST(SimdDispatch, LevelsAreOrderedAndNamed) {
  EXPECT_GE(max_supported_level(), IsaLevel::kScalar);
  EXPECT_GE(active_level(), IsaLevel::kScalar);
  EXPECT_LE(active_level(), max_supported_level());
  EXPECT_STREQ(level_name(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(level_name(IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(level_name(IsaLevel::kAvx512), "avx512");
}

TEST(SimdDispatch, ForceScalarAlwaysSucceeds) {
  ScopedLevel pin(IsaLevel::kScalar);
  EXPECT_TRUE(pin.ok());
  EXPECT_EQ(active_level(), IsaLevel::kScalar);
}

TEST(SimdDispatch, ForceAboveSupportFailsAndLeavesLevel) {
  if (max_supported_level() >= IsaLevel::kAvx512)
    GTEST_SKIP() << "every level supported on this host";
  const IsaLevel before = active_level();
  EXPECT_FALSE(force_level(IsaLevel::kAvx512));
  EXPECT_EQ(active_level(), before);
}

// Every element-wise kernel and reduction must produce identical BITS at
// every ISA level — the contract that makes SIMD invisible to SA
// trajectories, reports and the golden tests.
TEST(SimdKernels, BitIdenticalAcrossLevels) {
  // Sizes straddling the vector widths: sub-lane, odd tails, exact multiples.
  const std::size_t sizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 151, 256};
  for (const IsaLevel level : available_levels()) {
    for (const std::size_t n : sizes) {
      util::Rng rng(0x51D0 + n);
      const auto x = random_vec(rng, n);
      const auto a = random_vec(rng, n);
      const auto b = random_vec(rng, n);
      const auto y0 = random_vec(rng, n);
      const double s = rng.uniform(-3.0, 3.0);
      const std::size_t skip = rng.uniform_index(n + 1);  // may be == n

      // Scalar reference pass.
      std::vector<double> acc_s, diff_s, sdiff_s, axpy_s, axpysk_s;
      double dot_s;
      {
        ScopedLevel pin(IsaLevel::kScalar);
        ASSERT_TRUE(pin.ok());
        acc_s = y0;
        accumulate(acc_s.data(), x.data(), n);
        diff_s = y0;
        add_diff(diff_s.data(), a.data(), b.data(), n);
        sdiff_s = y0;
        add_scaled_diff(sdiff_s.data(), a.data(), b.data(), s, n);
        axpy_s = y0;
        axpy(axpy_s.data(), s, x.data(), n);
        axpysk_s = y0;
        axpy_skip(axpysk_s.data(), s, x.data(), n, skip);
        dot_s = dot(a.data(), b.data(), n);
      }

      ScopedLevel pin(level);
      ASSERT_TRUE(pin.ok());
      std::vector<double> y = y0;
      accumulate(y.data(), x.data(), n);
      expect_bitwise_equal(y, acc_s, "accumulate");
      y = y0;
      add_diff(y.data(), a.data(), b.data(), n);
      expect_bitwise_equal(y, diff_s, "add_diff");
      y = y0;
      add_scaled_diff(y.data(), a.data(), b.data(), s, n);
      expect_bitwise_equal(y, sdiff_s, "add_scaled_diff");
      y = y0;
      axpy(y.data(), s, x.data(), n);
      expect_bitwise_equal(y, axpy_s, "axpy");
      y = y0;
      axpy_skip(y.data(), s, x.data(), n, skip);
      expect_bitwise_equal(y, axpysk_s, "axpy_skip");
      EXPECT_EQ(dot(a.data(), b.data(), n), dot_s);
    }
  }
}

TEST(SimdKernels, FillNormalsBitIdenticalAcrossLevels) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{1001}}) {
    std::vector<double> ref(n);
    {
      ScopedLevel pin(IsaLevel::kScalar);
      util::Rng rng(0xBEEF + n);
      fill_normals(rng, ref.data(), n);
    }
    for (const IsaLevel level : available_levels()) {
      ScopedLevel pin(level);
      ASSERT_TRUE(pin.ok());
      util::Rng rng(0xBEEF + n);  // identical raw draw sequence
      std::vector<double> out(n);
      fill_normals(rng, out.data(), n);
      expect_bitwise_equal(out, ref, level_name(level));
    }
  }
}

TEST(SimdKernels, DeviceSamplingKernelsBitIdenticalAcrossLevels) {
  const std::size_t n = 333;
  util::Rng rng(0xD1CE);
  const auto zv = random_vec(rng, n, -3.0, 3.0);
  const auto zr = random_vec(rng, n, -3.0, 3.0);
  const auto zm = random_vec(rng, n, -3.0, 3.0);
  const auto base = random_vec(rng, n, 0.0, 1.0);
  OnCellParams p{/*i_on0=*/50e-6, /*don_dvth=*/-3e-5, /*don_dr=*/-1e-9,
                 /*sigma_vth=*/0.05, /*sigma_r_rel=*/0.08,
                 /*r_nominal=*/1e4, /*frac=*/0.7, /*mlc_sigma=*/0.02};

  std::vector<double> off_ref, on_ref;
  {
    ScopedLevel pin(IsaLevel::kScalar);
    off_ref = base;
    off_cell_accumulate(off_ref.data(), zv.data(), n, 1e-9, 0.3);
    on_ref = base;
    on_cell_accumulate(on_ref.data(), zv.data(), zr.data(), zm.data(), n, p);
  }
  for (const IsaLevel level : available_levels()) {
    ScopedLevel pin(level);
    ASSERT_TRUE(pin.ok());
    std::vector<double> off = base;
    off_cell_accumulate(off.data(), zv.data(), n, 1e-9, 0.3);
    expect_bitwise_equal(off, off_ref, "off_cell_accumulate");
    std::vector<double> on = base;
    on_cell_accumulate(on.data(), zv.data(), zr.data(), zm.data(), n, p);
    expect_bitwise_equal(on, on_ref, "on_cell_accumulate");
  }
}

TEST(SimdKernels, AxpySkipPreservesSkippedElement) {
  const std::size_t n = 37;
  util::Rng rng(0xA11);
  const auto x = random_vec(rng, n);
  const auto y0 = random_vec(rng, n);
  for (std::size_t skip = 0; skip < n; ++skip) {
    std::vector<double> y = y0;
    axpy_skip(y.data(), 1.5, x.data(), n, skip);
    EXPECT_EQ(y[skip], y0[skip]) << "skip=" << skip;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != skip) {
        EXPECT_EQ(y[i], y0[i] + 1.5 * x[i]) << "i=" << i;
      }
    }
  }
}

TEST(SimdKernels, NormalsHaveStandardMoments) {
  const std::size_t n = 200000;
  std::vector<double> z(n);
  util::Rng rng(0x60055);
  fill_normals(rng, z.data(), n);
  double mean = 0.0;
  for (const double v : z) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double v : z) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n - 1);
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

// The polynomial exp10 inside off_cell_accumulate must agree with libm
// std::pow(10, x) to ~1e-12 relative over the subthreshold operating range.
TEST(SimdKernels, OffCellLeakageMatchesLibmPow) {
  const double i_off0 = 1e-9, c = 0.4;
  for (double zvi = -3.0; zvi <= 3.0; zvi += 0.0917) {
    double sum = 0.0;
    off_cell_accumulate(&sum, &zvi, 1, i_off0, c);
    const double ref = i_off0 * std::pow(10.0, c * zvi);
    EXPECT_NEAR(sum, ref, 1e-12 * std::abs(ref)) << "zv=" << zvi;
  }
}

}  // namespace
}  // namespace cnash::simd

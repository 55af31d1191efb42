#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace cnash::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, draws / 10, draws / 100);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  Rng a(99);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, KeyedSplitIsPureAndDeterministic) {
  // split(key) must not advance the parent and must be a pure function of
  // (state, key): SA jobs rely on this to rebuild per-run streams.
  Rng a(99), b(99);
  Rng s1 = a.split(7);
  Rng s2 = a.split(7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(s1(), s2());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a(), b());  // parent untouched
}

TEST(Rng, KeyedSplitAdjacentKeysDecorrelated) {
  Rng root(1234);
  Rng s0 = root.split(0);
  Rng s1 = root.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (s0() == s1()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, KeyedSplitDependsOnParentState) {
  Rng a(5), b(6);
  Rng sa = a.split(3);
  Rng sb = b.split(3);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (sa() == sb()) ++same;
  EXPECT_LT(same, 2);
}

// The bulk paths stand in for repeated operator() calls: crossbar
// programming relies on them to consume exactly the draws it always did.
// The cached Box-Muller normal is state too, and neither path touches it.
TEST(Rng, FillMatchesRepeatedDraws) {
  for (const std::size_t n : {0, 1, 7, 64, 1001}) {
    Rng bulk(31), serial(31);
    bulk.normal();
    serial.normal();
    constexpr std::uint64_t kSentinel = 0x5e5e5e5e5e5e5e5eULL;
    std::vector<std::uint64_t> out(n + 1, kSentinel);
    bulk.fill(out.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], serial()) << i;
    EXPECT_EQ(out[n], kSentinel) << "n=" << n;
    EXPECT_EQ(bulk.normal(), serial.normal()) << "n=" << n;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(bulk(), serial()) << "n=" << n;
  }
}

TEST(Rng, DiscardMatchesRepeatedDraws) {
  for (const std::uint64_t n : {0, 1, 7, 64, 1001}) {
    Rng skip(32), serial(32);
    skip.normal();
    serial.normal();
    skip.discard(n);
    for (std::uint64_t i = 0; i < n; ++i) serial();
    EXPECT_EQ(skip.normal(), serial.normal()) << "n=" << n;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(skip(), serial()) << "n=" << n;
  }
}

TEST(Rng, JumpMatchesDiscard) {
  for (const std::uint64_t n : {0, 1, 2, 255, 256, 257, 1000003}) {
    // jump(n) steps short distances, so the polynomial is applied directly
    // too, at every distance.
    Rng jumped(33), applied(33), stepped(33);
    jumped.normal();
    applied.normal();
    stepped.normal();
    jumped.jump(n);
    applied.jump(jump_polynomial(n));
    stepped.discard(n);
    EXPECT_EQ(jumped.state(), stepped.state()) << "n=" << n;
    EXPECT_EQ(applied.state(), stepped.state()) << "n=" << n;
    const double cached = stepped.normal();
    EXPECT_EQ(jumped.normal(), cached) << "n=" << n;
    EXPECT_EQ(applied.normal(), cached) << "n=" << n;
    for (int i = 0; i < 16; ++i) EXPECT_EQ(jumped(), stepped()) << "n=" << n;
  }
}

TEST(Rng, JumpComposes) {
  const std::pair<std::uint64_t, std::uint64_t> splits[] = {
      {300, 700}, {1, 4095}, {123457, 98765}, {1ULL << 40, (1ULL << 40) + 3}};
  for (const auto& [a, b] : splits) {
    Rng twice(34), once(34);
    twice.jump(a);
    twice.jump(b);
    once.jump(a + b);
    EXPECT_EQ(twice.state(), once.state()) << a << " + " << b;
  }
}

TEST(Rng, JumpPolynomialMatchesPublishedJumps) {
  // P itself: the state map satisfies P(A) = 0, so summing A^k·s over P's
  // coefficients (x^256 included) cancels for any state s.
  Rng rng(35);
  std::array<std::uint64_t, 4> sum{};
  for (std::size_t k = 0; k <= 256; ++k) {
    const bool coefficient =
        k == 256 || ((kXoshiroCharPoly[k / 64] >> (k % 64)) & 1) != 0;
    if (coefficient)
      for (std::size_t w = 0; w < 4; ++w) sum[w] ^= rng.state()[w];
    rng();
  }
  EXPECT_EQ(sum, (std::array<std::uint64_t, 4>{}));
  // Blackman & Vigna's jump() and long_jump() advance by 2^128 and 2^192.
  EXPECT_EQ(jump_polynomial(1, 128),
            (std::array<std::uint64_t, 4>{
                0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL}));
  EXPECT_EQ(jump_polynomial(1, 192),
            (std::array<std::uint64_t, 4>{
                0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                0x77710069854ee241ULL, 0x39109bb02acbe635ULL}));
  // Below degree 256 no reduction happens: x^n is one bit.
  EXPECT_EQ(jump_polynomial(200), (std::array<std::uint64_t, 4>{
                                      0, 0, 0, 1ULL << (200 - 192)}));
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(23);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(50.0);   // clamps to bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, DensitySumsToOne) {
  Histogram h(0.0, 1.0, 16);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) h.add(rng.uniform());
  double sum = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.density(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Table, PrettyContainsHeadersAndCells) {
  Table t({"game", "rate"});
  t.add_row({"BoS", Table::num(99.5, 1)});
  const std::string s = t.pretty();
  EXPECT_NE(s.find("game"), std::string::npos);
  EXPECT_NE(s.find("99.5"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"a"});
  t.add_row({"x,y\"z"});
  EXPECT_NE(t.csv().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(Table, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

}  // namespace
}  // namespace cnash::util

#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace cnash::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256++ step. Taking the words by reference lets the bulk paths
/// run it on locals, which stay in registers across their loops.
inline std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1,
                          std::uint64_t& s2, std::uint64_t& s3) {
  const std::uint64_t result = rotl(s0 + s3, 23) + s0;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

// ---- GF(2) polynomials modulo P(x), degree < 256, low word first ----------

/// Bits 0..31 of x moved to the even bit positions: squaring a GF(2)
/// polynomial puts a zero between consecutive coefficients.
std::uint64_t spread32(std::uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  return (x | (x << 1)) & 0x5555555555555555ULL;
}

/// Entry b is b(x)·p(x) for the byte polynomial b. p has degree 241, so
/// every product has degree at most 248 and fits in four words.
const std::array<JumpPolynomial, 256>& byte_times_p() {
  static const std::array<JumpPolynomial, 256> table = [] {
    std::array<JumpPolynomial, 256> t{};
    for (unsigned b = 0; b < 256; ++b)
      for (unsigned j = 0; j < 8; ++j) {
        if (((b >> j) & 1) == 0) continue;
        for (unsigned w = 0; w < 4; ++w) {
          t[b][w] ^= kXoshiroCharPoly[w] << j;
          if (j != 0 && w != 0) t[b][w] ^= kXoshiroCharPoly[w - 1] >> (64 - j);
        }
      }
    return t;
  }();
  return table;
}

JumpPolynomial square_mod(const JumpPolynomial& a) {
  std::uint64_t w[8];
  for (unsigned i = 0; i < 4; ++i) {
    w[2 * i] = spread32(a[i]);
    w[2 * i + 1] = spread32(a[i] >> 32);
  }
  // x^256 ≡ p(x): the byte at bit 256 + 8k becomes b(x)·p(x)·x^(8k), which
  // lies wholly below that byte, so reducing from the top byte down leaves
  // every byte final by the time it is read.
  const std::array<JumpPolynomial, 256>& table = byte_times_p();
  for (unsigned k = 32; k-- > 0;) {
    const unsigned q = k / 8, sh = 8 * (k % 8);
    const JumpPolynomial& t = table[(w[4 + q] >> sh) & 0xff];
    if (sh == 0) {
      for (unsigned i = 0; i < 4; ++i) w[q + i] ^= t[i];
      continue;
    }
    w[q] ^= t[0] << sh;
    for (unsigned i = 1; i < 4; ++i)
      w[q + i] ^= (t[i] << sh) | (t[i - 1] >> (64 - sh));
    w[q + 4] ^= t[3] >> (64 - sh);
  }
  return {w[0], w[1], w[2], w[3]};
}

void times_x(JumpPolynomial& a) {
  const std::uint64_t carry = a[3] >> 63;
  for (unsigned i = 3; i > 0; --i) a[i] = (a[i] << 1) | (a[i - 1] >> 63);
  a[0] <<= 1;
  if (carry != 0)
    for (unsigned i = 0; i < 4; ++i) a[i] ^= kXoshiroCharPoly[i];
}
}  // namespace

JumpPolynomial jump_polynomial(std::uint64_t n, unsigned doublings) {
  // Left-to-right square-and-multiply on x^n.
  JumpPolynomial r{1, 0, 0, 0};
  for (unsigned bit = 64; bit-- > 0;) {
    if ((n >> bit) == 0) continue;
    r = square_mod(r);
    if (((n >> bit) & 1) != 0) times_x(r);
  }
  for (unsigned d = 0; d < doublings; ++d) r = square_mod(r);
  return r;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() { return step(s_[0], s_[1], s_[2], s_[3]); }

void Rng::fill(result_type* out, std::size_t n) {
  std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
  for (std::size_t i = 0; i < n; ++i) out[i] = step(s0, s1, s2, s3);
  s_ = {s0, s1, s2, s3};
}

void Rng::discard(std::uint64_t n) {
  std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
  for (std::uint64_t i = 0; i < n; ++i) step(s0, s1, s2, s3);
  s_ = {s0, s1, s2, s3};
}

void Rng::jump(std::uint64_t n) {
  // Applying a polynomial costs 256 steps, so short skips just step.
  if (n <= 256)
    discard(n);
  else
    jump(jump_polynomial(n));
}

void Rng::jump(const JumpPolynomial& poly) {
  // poly(A)·s: the sum of A^k·s, the state k steps on, over the set
  // coefficients k. Masks instead of branches, as those are coin flips.
  std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
  for (const std::uint64_t word : poly)
    for (unsigned b = 0; b < 64; ++b) {
      const std::uint64_t mask = 0 - ((word >> b) & 1);
      t0 ^= s0 & mask;
      t1 ^= s1 & mask;
      t2 ^= s2 & mask;
      t3 ^= s3 & mask;
      step(s0, s1, s2, s3);
    }
  s_ = {t0, t1, t2, t3};
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // Lemire's multiply-shift rejection method: unbiased.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0ULL - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p_true) { return uniform() < p_true; }

Rng Rng::split() {
  std::uint64_t sm = (*this)();
  return Rng(splitmix64(sm));
}

Rng Rng::split(std::uint64_t key) const {
  // Fold the full 256-bit state and the key through two splitmix64 rounds so
  // nearby keys (0, 1, 2, ...) land in unrelated streams.
  std::uint64_t sm = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47);
  sm ^= 0x9e3779b97f4a7c15ULL * (key + 1);
  std::uint64_t seed = splitmix64(sm);
  seed ^= splitmix64(sm);
  return Rng(seed);
}

}  // namespace cnash::util

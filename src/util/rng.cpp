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
}  // namespace

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

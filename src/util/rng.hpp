#pragma once
// Deterministic, fast pseudo-random number generation for all stochastic parts of
// the simulator (SA moves, Monte-Carlo device sampling, random game generation).
//
// xoshiro256++ (Blackman & Vigna) seeded through splitmix64. Deterministic across
// platforms, unlike std::default_random_engine; every experiment in the repo is
// reproducible from a single 64-bit seed.

#include <array>
#include <cstddef>
#include <cstdint>

namespace cnash::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// A polynomial over GF(2) of degree below 256, coefficients low word first.
using JumpPolynomial = std::array<std::uint64_t, 4>;

/// The xoshiro256 state map A is linear over GF(2). Its characteristic
/// polynomial is P(x) = x^256 + p(x), where bit k of kXoshiroCharPoly[k / 64]
/// is the coefficient of x^k in p (the Berlekamp–Massey result over the state
/// map). By Cayley–Hamilton A^n = (x^n mod P)(A), so any offset into the
/// stream is reachable in O(log n) (Haramoto et al., "Efficient Jump Ahead
/// for F2-Linear Random Number Generators", 2008).
inline constexpr JumpPolynomial kXoshiroCharPoly = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
    0x0003c03c3f3ecb19ULL};

/// x^(n·2^doublings) mod P(x): the polynomial Rng::jump applies to skip
/// n·2^doublings draws. (1, 128) and (1, 192) give xoshiro256's published
/// JUMP and LONG_JUMP words.
JumpPolynomial jump_polynomial(std::uint64_t n, unsigned doublings = 0);

/// xoshiro256++ generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()();

  /// Writes the next n raw draws to out[0..n): exactly the values, and the
  /// final state, of n operator() calls, with the state kept in registers.
  void fill(result_type* out, std::size_t n);
  /// Advances the generator past the next n raw draws, as n discarded
  /// operator() calls would.
  void discard(std::uint64_t n);
  /// The same end state as discard(n), in O(log n): applies
  /// jump_polynomial(n) to the state. The cached normal survives, as it does
  /// discard().
  void jump(std::uint64_t n);
  /// Applies a polynomial to the state: jump(jump_polynomial(n)) is
  /// discard(n) for any n. Skipping one distance several times computes its
  /// polynomial once.
  void jump(const JumpPolynomial& poly);

  /// The four state words, so a kernel can step several generators in
  /// lockstep (simd::fill_lanes). set_state keeps the cached normal.
  std::array<std::uint64_t, 4> state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box–Muller (cached second draw).
  double normal();
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool bernoulli(double p_true);

  /// Split off an independent stream (jump-free; reseeds via splitmix of state).
  /// Advances this generator by one draw.
  Rng split();

  /// Counter-derived keyed split: an independent stream addressed by `key`,
  /// WITHOUT advancing this generator. The same (state, key) pair always
  /// yields the same stream, so a pool of workers can reproduce the exact
  /// per-run streams of a serial sweep regardless of which worker picks up
  /// which run — the basis of the SolverService's worker-count-invariant
  /// determinism.
  Rng split(std::uint64_t key) const;

 private:
  std::array<std::uint64_t, 4> s_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cnash::util

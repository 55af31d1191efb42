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

#pragma once
// obs — lock-cheap metrics registry: named counters, gauges and log-linear
// histograms with exact-count percentile extraction, rendered as ordered JSON
// (the `metrics` wire method) and Prometheus-style text exposition.
//
// Hot-path cost model: every instrument update is a handful of relaxed
// atomic operations — no locks, no allocation — so instruments can sit on
// the gateway's per-request path and inside SolverService workers without
// perturbing what they measure. The registry's mutex guards only
// registration and scrape-time iteration (both rare); callers cache the
// returned instrument reference, whose address is stable for the registry's
// lifetime.
//
// Histogram design: log-linear buckets — each power-of-two octave is split
// into kSubBuckets equal-width linear sub-buckets, giving a worst-case
// relative resolution of 1/kSubBuckets (6.25%) across ~24 decades, in a
// fixed ~10 KiB footprint. percentile(q) returns the LOWER BOUND of the
// bucket holding the rank-⌈q·n⌉ sample, so samples recorded exactly at
// bucket boundaries reproduce exactly (the unit tests pin this down). count
// and sum are exact; merge() is associative (bucket-wise addition), so
// per-thread histograms can be combined without loss.
//
// Mirrored stats: subsystems that already keep their own aggregate structs
// under their own locks (the gateway's cache, admission controller and
// store) register a collect callback; the registry runs all callbacks at the
// top of a scrape so those instruments are refreshed consistently. Callbacks
// run outside the registry mutex and may take subsystem locks.

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace cnash::obs {

/// Monotonic event counter. add() is the hot-path entry; set() overwrites —
/// it exists for instruments mirroring an externally-maintained monotonic
/// total (CacheStats::hits et al.) at scrape time.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, resident bytes, uptime).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Everything a scrape needs from one histogram, taken in one pass.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p95 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
};

class Histogram {
 public:
  /// Octave split: 16 linear sub-buckets per power of two.
  static constexpr int kSubBuckets = 16;
  /// frexp exponents covered: values in [2^(kMinExp-1), 2^kMaxExp).
  /// [-40, 40] spans ~9e-13 .. ~1e12 — nanoseconds to wall-clock hours with
  /// generous margin either side.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 40;
  /// [0] underflow (incl. zero/negative/non-finite), [last] overflow.
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSubBuckets + 2;

  /// O(1), lock-free, allocation-free.
  void record(double value);

  /// Bucket index for a value and the lower bound of bucket `index`
  /// (index 0 → 0.0). Exposed for the boundary unit tests.
  static int bucket_index(double value);
  static double bucket_lower_bound(int index);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value (exact, not bucketed); NaN when empty.
  double min() const;
  double max() const;

  /// Lower bound of the bucket holding the rank-⌈q·count⌉ sample (1-based
  /// rank over the recorded distribution). NaN when empty. Values that fell
  /// in the underflow bucket resolve to the exact recorded min.
  double percentile(double q) const;

  HistogramSnapshot snapshot() const;

  /// Bucket-wise addition of `other` into *this (count/sum/min/max too).
  /// Associative and commutative — (a+b)+c == a+(b+c) bucket-for-bucket.
  void merge(const Histogram& other);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// Bit patterns of the running min/max; +inf/-inf sentinels when empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Named instrument registry. Instrument names follow Prometheus convention
/// (`cnash_cache_hits_total`); an optional label set may be embedded in the
/// name (`cnash_solve_jobs_total{backend="hardware-sa"}`) — the text
/// exposition emits one TYPE line per base name. A family's series are kept
/// together, families in first-registration order.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Run `fn` at the top of every scrape (to_json / text_exposition), before
  /// instruments are read — the hook for mirroring lock-guarded aggregate
  /// structs into registry instruments. Runs outside the registry mutex.
  void on_collect(std::function<void()> fn);

  /// {"counters":{name:value},"gauges":{...},"histograms":{name:{count,sum,
  /// min,max,p50,p95,p99}}} — names in registration order, each family's
  /// series together.
  util::Json to_json() const;

  /// Prometheus text exposition: counters/gauges verbatim, histograms as
  /// summaries (quantile="0.5|0.95|0.99" + _sum + _count).
  std::string text_exposition() const;

 private:
  void run_collectors() const;

  mutable std::mutex mutex_;
  // Registration order, each family kept contiguous, is the exposition
  // order; unique_ptr keeps instrument addresses stable across insertion and
  // regrowth.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace cnash::obs

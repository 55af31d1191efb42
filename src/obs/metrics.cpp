#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace cnash::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Raise an atomic-min / atomic-max watermark with a CAS loop.
void relax_min(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void relax_max(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---- Histogram --------------------------------------------------------------

int Histogram::bucket_index(double value) {
  if (!std::isfinite(value) || !(value > 0.0)) return 0;
  int exp = 0;
  const double mant = std::frexp(value, &exp);  // value = mant·2^exp, mant∈[½,1)
  if (exp < kMinExp) return 0;
  if (exp >= kMaxExp) return kBuckets - 1;
  int sub = static_cast<int>((mant - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return 1 + (exp - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_lower_bound(int index) {
  if (index <= 0) return 0.0;
  if (index >= kBuckets - 1) return std::ldexp(1.0, kMaxExp - 1);
  const int linear = index - 1;
  const int exp = kMinExp + linear / kSubBuckets;
  const int sub = linear % kSubBuckets;
  // 2^(exp-1) · (1 + sub/kSubBuckets); the power-of-two scale is exact, so
  // values recorded at a lower bound land back in the same bucket.
  return std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exp);
}

void Histogram::record(double value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) {
    sum_.fetch_add(value, std::memory_order_relaxed);
    relax_min(min_, value);
    relax_max(max_, value);
  }
}

double Histogram::min() const {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? kNaN : v;
}

double Histogram::max() const {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? kNaN : v;
}

double Histogram::percentile(double q) const {
  const std::uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[i].load(std::memory_order_relaxed);
    if (cum >= rank) {
      if (i == 0) {
        // Underflow bucket (zero / sub-range values): the exact recorded
        // minimum is a strictly better answer than the bound 0.0.
        const double m = min();
        return std::isnan(m) ? 0.0 : m;
      }
      return bucket_lower_bound(i);
    }
  }
  // Concurrent recorders can make count_ run ahead of the bucket array for a
  // moment; fall back to the high watermark.
  return max();
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  s.p50 = percentile(0.50);
  s.p95 = percentile(0.95);
  s.p99 = percentile(0.99);
  return s;
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  const double omin = other.min_.load(std::memory_order_relaxed);
  const double omax = other.max_.load(std::memory_order_relaxed);
  if (std::isfinite(omin)) relax_min(min_, omin);
  if (std::isfinite(omax)) relax_max(max_, omax);
}

// ---- Registry ---------------------------------------------------------------

namespace {

/// `name{a="b"}` → `name`.
std::string_view base_name(std::string_view name) {
  return name.substr(0, name.find('{'));
}

/// Scan-or-insert in a name→instrument vector (registration is rare; callers
/// cache the reference, so linear scan beats a map plus pointer chasing).
template <class T>
T& intern(std::vector<std::pair<std::string, std::unique_ptr<T>>>& slots,
          const std::string& name) {
  for (auto& [n, slot] : slots)
    if (n == name) return *slot;
  // A new series goes right after the last one of its family (same base
  // name): families stay contiguous, so the text exposition prints one TYPE
  // line per family, as Prometheus' text format requires.
  const std::string_view base = base_name(name);
  auto at = slots.end();
  for (auto it = slots.begin(); it != slots.end(); ++it)
    if (base_name(it->first) == base) at = std::next(it);
  return *slots.emplace(at, name, std::make_unique<T>())->second;
}

/// `name{a="b"}` → base `name`, labels `a="b"` (empty when unlabeled).
void split_labels(const std::string& name, std::string& base,
                  std::string& labels) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) {
    base = name;
    labels.clear();
    return;
  }
  base = name.substr(0, brace);
  const auto close = name.rfind('}');
  labels = name.substr(brace + 1,
                       close == std::string::npos ? std::string::npos
                                                  : close - brace - 1);
}

std::string fmt_double(double v) {
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void type_line(std::string& out, const std::string& base, const char* type,
               std::string& last_base) {
  if (base == last_base) return;
  last_base = base;
  out += "# TYPE ";
  out += base;
  out += ' ';
  out += type;
  out += '\n';
}

std::string labeled(const std::string& base, const std::string& labels,
                    const std::string& extra = {}) {
  std::string joined = labels;
  if (!extra.empty()) {
    if (!joined.empty()) joined += ',';
    joined += extra;
  }
  if (joined.empty()) return base;
  return base + '{' + joined + '}';
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return intern(counters_, name);
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return intern(gauges_, name);
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return intern(histograms_, name);
}

void Registry::on_collect(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(std::move(fn));
}

void Registry::run_collectors() const {
  std::vector<std::function<void()>> fns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fns = collectors_;
  }
  // Outside the registry mutex: collectors take subsystem locks (the
  // gateway's gate, the store's mutex) and re-enter instrument setters.
  for (const auto& fn : fns) fn();
}

util::Json Registry::to_json() const {
  run_collectors();
  std::lock_guard<std::mutex> lock(mutex_);
  util::Json doc = util::Json::object();
  util::Json counters = util::Json::object();
  for (const auto& [name, c] : counters_)
    counters.set(name, static_cast<double>(c->value()));
  doc.set("counters", std::move(counters));
  util::Json gauges = util::Json::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, g->value());
  doc.set("gauges", std::move(gauges));
  util::Json histograms = util::Json::object();
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    util::Json j = util::Json::object();
    j.set("count", static_cast<double>(s.count));
    j.set("sum", s.sum);
    j.set("min", s.min);
    j.set("max", s.max);
    j.set("p50", s.p50);
    j.set("p95", s.p95);
    j.set("p99", s.p99);
    histograms.set(name, std::move(j));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

std::string Registry::text_exposition() const {
  run_collectors();
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string base, labels, last_base;
  for (const auto& [name, c] : counters_) {
    split_labels(name, base, labels);
    type_line(out, base, "counter", last_base);
    out += labeled(base, labels);
    out += ' ';
    out += std::to_string(c->value());
    out += '\n';
  }
  last_base.clear();
  for (const auto& [name, g] : gauges_) {
    split_labels(name, base, labels);
    type_line(out, base, "gauge", last_base);
    out += labeled(base, labels);
    out += ' ';
    out += fmt_double(g->value());
    out += '\n';
  }
  last_base.clear();
  for (const auto& [name, h] : histograms_) {
    split_labels(name, base, labels);
    type_line(out, base, "summary", last_base);
    const HistogramSnapshot s = h->snapshot();
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", s.p50}, {"0.95", s.p95}, {"0.99", s.p99}};
    for (const auto& [q, v] : quantiles) {
      out += labeled(base, labels,
                     std::string("quantile=\"") + q + '"');
      out += ' ';
      out += fmt_double(s.count ? v : 0.0);
      out += '\n';
    }
    out += labeled(base + "_sum", labels);
    out += ' ';
    out += fmt_double(s.sum);
    out += '\n';
    out += labeled(base + "_count", labels);
    out += ' ';
    out += std::to_string(s.count);
    out += '\n';
  }
  return out;
}

}  // namespace cnash::obs

#include "obs/metrics.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace cfgx::obs {
namespace detail {

namespace {

bool metrics_enabled_from_env() {
  const char* env = std::getenv("CFGX_METRICS");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

}  // namespace

std::atomic<bool> g_metrics_enabled{metrics_enabled_from_env()};

}  // namespace detail

void set_metrics_enabled(bool enabled) noexcept {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

std::size_t Histogram::bucket_index(double value) noexcept {
  if (!(value > kFloor)) return 0;  // includes NaN and everything <= 1ns
  int exponent = 0;
  // value/kFloor = mantissa * 2^exponent with mantissa in [0.5, 1), so the
  // octave is exponent-1 and 2*mantissa in [1, 2) selects the linear
  // sub-bucket - no log() on the hot path.
  const double mantissa = std::frexp(value / kFloor, &exponent);
  const auto octave = static_cast<std::size_t>(exponent - 1);
  if (octave >= kOctaves) return kBucketCount - 1;
  const auto sub = static_cast<std::size_t>(
      (mantissa * 2.0 - 1.0) * static_cast<double>(kSubBucketsPerOctave));
  return octave * kSubBucketsPerOctave +
         (sub < kSubBucketsPerOctave ? sub : kSubBucketsPerOctave - 1);
}

double Histogram::bucket_lower_bound(std::size_t index) {
  if (index >= kBucketCount) {
    throw std::invalid_argument("Histogram::bucket_lower_bound: bad index");
  }
  const std::size_t octave = index / kSubBucketsPerOctave;
  const std::size_t sub = index % kSubBucketsPerOctave;
  return kFloor * std::ldexp(1.0, static_cast<int>(octave)) *
         (1.0 + static_cast<double>(sub) /
                    static_cast<double>(kSubBucketsPerOctave));
}

void Histogram::record(double value) noexcept {
  if (!metrics_enabled()) return;
  if (std::isnan(value)) return;
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("Histogram::quantile: q outside [0, 1]");
  }
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  // The extremes are tracked exactly; don't blur them through a bucket.
  if (q == 0.0) return min();
  if (q == 1.0) return max();
  // Rank of the requested sample (1-based, nearest-rank definition).
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      // Geometric bucket midpoint, clamped to the observed range so
      // single-bucket histograms report exact values.
      const double lo = bucket_lower_bound(i);
      const double hi = i + 1 < kBucketCount ? bucket_lower_bound(i + 1)
                                             : lo * 2.0;
      const double mid = std::sqrt(lo * hi);
      return std::min(std::max(mid, min()), max());
    }
  }
  return max();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBucketCount);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void MetricsSnapshot::write_json(JsonWriter& writer) const {
  writer.begin_object();
  writer.key("counters").begin_object();
  for (const auto& [name, value] : counters) writer.field(name, value);
  writer.end_object();
  writer.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) writer.field(name, value);
  writer.end_object();
  writer.key("histograms").begin_array();
  for (const HistogramStats& h : histograms) {
    writer.begin_object()
        .field("name", h.name)
        .field("count", h.count)
        .field("sum", h.sum)
        .field("mean", h.mean)
        .field("min", h.min)
        .field("max", h.max)
        .field("p50", h.p50)
        .field("p95", h.p95)
        .field("p99", h.p99)
        .end_object();
  }
  writer.end_array();
  writer.end_object();
}

std::string MetricsSnapshot::json() const {
  JsonWriter writer;
  write_json(writer);
  return writer.str();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramStats stats;
    stats.name = name;
    stats.count = histogram->count();
    stats.sum = histogram->sum();
    stats.mean = histogram->mean();
    stats.min = histogram->min();
    stats.max = histogram->max();
    stats.p50 = histogram->quantile(0.50);
    stats.p95 = histogram->quantile(0.95);
    stats.p99 = histogram->quantile(0.99);
    snap.histograms.push_back(std::move(stats));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace cfgx::obs

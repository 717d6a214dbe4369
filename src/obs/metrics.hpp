// Thread-safe metrics: named counters, gauges and log-bucketed histograms
// behind a process-global registry.
//
// Hot-path contract: recording is lock-free (relaxed atomics only) and a
// single relaxed load + branch when metrics are disabled, so counters and
// histograms may sit inside the matrix kernels and the thread-pool worker
// loop. Registration (name lookup) takes a mutex - cache the returned
// reference in a function-local static at the call site:
//
//   static auto& calls = obs::MetricsRegistry::global().counter("spmm.calls");
//   calls.add();
//
// References returned by the registry are stable for the process lifetime;
// reset() zeroes values but never invalidates them. The global enable flag
// initializes from CFGX_METRICS (unset/non-zero = on, "0" = off).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cfgx::obs {

class JsonWriter;

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) noexcept;

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written (set) or accumulated (add) double value.
class Gauge {
 public:
  void set(double v) noexcept {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }

  void add(double v) noexcept {
    if (!metrics_enabled()) return;
    value_.fetch_add(v, std::memory_order_relaxed);
  }

  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram over positive values (durations in seconds by
// convention). Buckets are log-spaced: each power-of-two octave starting at
// kFloor is split into kSubBucketsPerOctave linear sub-buckets (HdrHistogram
// style), giving <= 2^(1/4) ~ 19% relative resolution over [1ns, ~10^10s]
// with a fixed 2 KiB footprint and purely relaxed-atomic recording.
class Histogram {
 public:
  static constexpr std::size_t kSubBucketsPerOctave = 4;
  static constexpr std::size_t kOctaves = 64;
  static constexpr std::size_t kBucketCount = kOctaves * kSubBucketsPerOctave;
  static constexpr double kFloor = 1e-9;

  Histogram();

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  // 0 when empty.
  double min() const noexcept;
  double max() const noexcept;

  // q in [0, 1]; returns a representative value from the bucket containing
  // the rank-q sample, clamped to the observed [min, max]; q of exactly 0
  // or 1 returns the exact observed min/max. An EMPTY histogram returns
  // 0.0 for every q — never a throw and never a read of the (empty) bucket
  // array, so reporting paths in a long-running process can snapshot idle
  // histograms unconditionally (DurationStats::percentile matches). With a
  // single sample (or all samples in one bucket) the min/max clamp makes
  // every quantile the exact observed value. Throws std::invalid_argument
  // outside [0, 1].
  double quantile(double q) const;

  // Inclusive lower edge of bucket `index` (index < kBucketCount).
  static double bucket_lower_bound(std::size_t index);

  std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;

 private:
  static std::size_t bucket_index(double value) noexcept;

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Encoded as +/-inf when empty; CAS loops keep them exact under races.
  std::atomic<double> min_;
  std::atomic<double> max_;
};

struct HistogramStats {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Point-in-time copy of every registered metric, for manifests and tests.
// Iteration order is DETERMINISTIC: each section is sorted by metric name
// (the registry stores metrics in ordered maps), so manifests, /statusz and
// golden tests are stable across runs, platforms, and registration order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramStats> histograms;

  // Writes {"counters":{...},"gauges":{...},"histograms":[...]}.
  void write_json(JsonWriter& writer) const;
  std::string json() const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  // Get-or-create; the reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  // Zeroes every metric; registrations (and references) survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Records elapsed seconds into a histogram at scope exit. Skips the clock
// reads entirely when metrics are disabled at construction.
class ScopedDurationTimer {
 public:
  explicit ScopedDurationTimer(Histogram& histogram) noexcept
      : histogram_(metrics_enabled() ? &histogram : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedDurationTimer(const ScopedDurationTimer&) = delete;
  ScopedDurationTimer& operator=(const ScopedDurationTimer&) = delete;

  ~ScopedDurationTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(std::chrono::duration<double>(elapsed).count());
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cfgx::obs

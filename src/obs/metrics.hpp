#pragma once

// hprng::obs — the observability layer (docs/OBSERVABILITY.md).
//
// MetricsRegistry is a lightweight process-local metrics store: named
// counters, gauges and histograms following the `hprng.<subsystem>.<name>`
// naming contract, snapshot-able to JSON for machine consumption
// (--metrics-json on the bench binaries).
//
// Instrumented classes (sim::Engine, sim::Device, host::BitFeeder,
// core::HybridPrng) resolve their instruments ONCE in set_metrics() and
// keep raw pointers, so a hook on the hot path is a null check plus an
// atomic add — and nothing at all when no registry is attached.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hprng::obs {

/// Monotonically increasing quantity (events, bytes, simulated seconds).
/// Thread safe; double-valued so time totals need no scaling tricks.
class Counter {
 public:
  void add(double delta = 1.0) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous quantity (queue depth, occupancy).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of observed values in power-of-two buckets: bucket i holds
/// observations v with 2^(i-1-kBucketShift) < v <= 2^(i-kBucketShift)
/// (bucket 0 additionally catches v <= 0), plus an overflow bucket.
/// Tracks count/sum/min/max exactly; the buckets bound quantiles.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;
  static constexpr int kBucketShift = 32;  // bucket upper bounds 2^-32..2^31

  void observe(double v);

  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< 0 when empty.
  [[nodiscard]] double max() const;  ///< 0 when empty.

  /// Bucket-bounded quantile estimate: the upper bound of the smallest
  /// bucket whose cumulative count reaches q * count, clamped to
  /// [min, max] (so quantile(0.5) of a one-value histogram is that value,
  /// not a power of two). q outside [0, 1] is clamped; 0 when empty.
  /// Power-of-two buckets bound the estimate within 2x of the true
  /// quantile — the resolution the serve-layer latency reports quote.
  [[nodiscard]] double quantile(double q) const;

  /// Upper bound of bucket i (inclusive, "le" in the JSON snapshot).
  [[nodiscard]] static double bucket_upper_bound(int i);
  /// Per-bucket (non-cumulative) observation count; i == kNumBuckets is
  /// the overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(int i) const;

 private:
  friend class MetricsRegistry;
  mutable std::mutex mu_;
  std::uint64_t buckets_[kNumBuckets + 1] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named instrument store. counter()/gauge()/histogram() get-or-create;
/// returned references stay valid for the registry's lifetime (node-based
/// storage), which is what lets instrumented classes cache them.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// True when an instrument of any kind with this exact name exists.
  [[nodiscard]] bool has(const std::string& name) const;
  /// All instrument names, sorted (counters, then gauges, then histograms
  /// de-duplicated is not needed: names are unique across kinds by the
  /// naming contract).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Snapshot of every instrument as a JSON object with "counters",
  /// "gauges" and "histograms" members (see docs/OBSERVABILITY.md).
  [[nodiscard]] std::string to_json() const;
  /// to_json() straight to a file; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  // std::map: node-based, so references returned above never move.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace hprng::obs

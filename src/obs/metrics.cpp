#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"
#include "util/file.hpp"
#include "util/table.hpp"

namespace hprng::obs {

namespace {

/// Smallest bucket whose upper bound is >= v (overflow -> kNumBuckets).
int bucket_index(double v) {
  if (v <= 0.0) return 0;
  const int i =
      static_cast<int>(std::ceil(std::log2(v))) + Histogram::kBucketShift;
  // log2 rounding at exact powers of two can land one bucket high or low;
  // nudge into the inclusive-upper-bound invariant.
  int idx = std::clamp(i, 0, Histogram::kNumBuckets);
  while (idx > 0 && v <= Histogram::bucket_upper_bound(idx - 1)) --idx;
  while (idx < Histogram::kNumBuckets && v > Histogram::bucket_upper_bound(idx)) {
    ++idx;
  }
  return idx;
}

}  // namespace

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lk(mu_);
  buckets_[bucket_index(v)] += 1;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

std::size_t Histogram::count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lk(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_;
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (int i = 0; i <= kNumBuckets; ++i) {
    cum += buckets_[i];
    if (static_cast<double>(cum) >= target && cum > 0) {
      const double ub =
          i == kNumBuckets ? max_ : bucket_upper_bound(i);
      return std::clamp(ub, min_, max_);
    }
  }
  return max_;
}

double Histogram::bucket_upper_bound(int i) {
  return std::ldexp(1.0, i - kBucketShift);
}

std::uint64_t Histogram::bucket_count(int i) const {
  std::lock_guard<std::mutex> lk(mu_);
  return buckets_[i];
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return histograms_[name];
}

bool MetricsRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
         histograms_.count(name) != 0;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [k, v] : counters_) out.push_back(k);
  for (const auto& [k, v] : gauges_) out.push_back(k);
  for (const auto& [k, v] : histograms_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += util::strf("%s\n    \"%s\": %.17g", first ? "" : ",",
                      json::escape(name).c_str(), c.value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += util::strf("%s\n    \"%s\": %.17g", first ? "" : ",",
                      json::escape(name).c_str(), g.value());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::lock_guard<std::mutex> hlk(h.mu_);
    out += util::strf(
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %.17g, \"min\": %.17g, "
        "\"max\": %.17g, \"buckets\": [",
        first ? "" : ",", json::escape(name).c_str(),
        static_cast<unsigned long long>(h.count_), h.sum_, h.min_, h.max_);
    bool bfirst = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (h.buckets_[i] == 0) continue;  // sparse: empty bins are implied
      out += util::strf("%s{\"le\": %.17g, \"count\": %llu}",
                        bfirst ? "" : ", ", Histogram::bucket_upper_bound(i),
                        static_cast<unsigned long long>(h.buckets_[i]));
      bfirst = false;
    }
    // The overflow bucket is always emitted: its presence marks the end of
    // the (sparse) series for consumers.
    out += util::strf(
        "%s{\"le\": \"+Inf\", \"count\": %llu}]}", bfirst ? "" : ", ",
        static_cast<unsigned long long>(h.buckets_[Histogram::kNumBuckets]));
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  return util::write_file(path, to_json());
}

}  // namespace hprng::obs

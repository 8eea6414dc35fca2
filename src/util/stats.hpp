// Online statistics for experiment metrics.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rtds::snap {
struct Access;  // checkpoint serialization (snap/)
}

namespace rtds {

/// Welford online mean/variance plus min/max.
class RunningStat {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel-combine rule).
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;

  friend struct snap::Access;  // checkpoints restore the accumulator bits
};

/// Stores every sample; supports exact percentiles. Meant for per-run
/// collection of a few million values at most.
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return values_.size(); }
  double mean() const;
  /// Exact percentile by nearest-rank; p in [0, 100].
  double percentile(double p) const;
  /// Quantile shorthands for the experiment sinks (exact, nearest-rank).
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
  double min() const;
  double max() const;
  const std::vector<double>& values() const { return values_; }

  /// Parallel-combine rule (mirrors RunningStat::merge): concatenates the
  /// stored samples. Because percentiles are computed over the sorted
  /// multiset, the result is independent of merge order — merging
  /// per-worker accumulators yields bit-identical quantiles to a single
  /// serial accumulator fed the same values.
  void merge(const Samples& other);

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width histogram over [lo, hi); out-of-range values clamp to the
/// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t count(std::size_t bucket) const { return counts_.at(bucket); }
  std::size_t total() const { return total_; }
  double bucket_lo(std::size_t bucket) const;
  double bucket_hi(std::size_t bucket) const;

  /// Render a fixed-width ASCII bar chart (for bench output).
  std::string render(std::size_t width = 50) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace rtds

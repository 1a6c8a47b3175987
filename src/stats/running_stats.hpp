#pragma once

/// \file running_stats.hpp
/// Streaming mean / variance accumulation (Welford's algorithm).
///
/// The training phase (paper §5.1) groups the signal-strength samples
/// of each <training point, AP> pair and stores their average and
/// standard deviation; this accumulator computes both in one pass and
/// supports merging partial results from parallel workers.

#include <algorithm>
#include <cstdint>
#include <limits>

namespace loctk::stats {

/// One-pass mean/variance/min/max accumulator. Numerically stable
/// (Welford); mergeable, so shards built on different threads can be
/// combined exactly (Chan et al. parallel variance).
class RunningStats {
 public:
  /// Add one sample. Inline: the training-database generator calls it
  /// once per wi-scan row.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merge another accumulator into this one. Exact: the result is
  /// identical (up to FP rounding) to having seen all samples here.
  void merge(const RunningStats& other);

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Mean of the samples seen; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }

  /// Population variance (divide by n); 0 when fewer than 1 sample.
  double variance() const { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }

  /// Sample variance (divide by n-1); 0 when fewer than 2 samples.
  double sample_variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

  double stddev() const;         ///< sqrt of population variance
  double sample_stddev() const;  ///< sqrt of sample variance

  /// Smallest / largest sample; +inf / -inf when empty.
  double min() const { return min_; }
  double max() const { return max_; }

  /// Sum of all samples.
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace loctk::stats

#include "stats/running_stats.hpp"

#include <algorithm>
#include <cmath>

namespace loctk::stats {

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }
double RunningStats::sample_stddev() const {
  return std::sqrt(sample_variance());
}

}  // namespace loctk::stats

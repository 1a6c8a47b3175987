#pragma once

/// \file stats.hpp
/// Wall-clock measurement helpers for the scan-to-fix benchmark.
///
/// Every timing is a `steady_clock` difference taken around one call
/// (or one fixed batch of calls), and every percentile is read off the
/// sorted raw samples — never off the library's log10-bucket
/// histograms, whose bins are a factor of ~1.5 wide. Rates are
/// completed work divided by wall seconds, never by a thread's CPU
/// time. Open-loop latency is measured from the time a request was
/// *due*, so a stall is charged to every request queued behind it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace scanbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// 1-based nearest rank of the q-quantile among n samples: the smallest
/// rank r with r >= q * n, clamped to [1, n].
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("nearest_rank: no samples");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("nearest_rank: q outside [0, 1]");
  }
  const double r = std::ceil(q * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// Nearest-rank q-quantile of ascending-sorted raw samples.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

/// Samples strictly after the q-quantile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the "p99" is one of a handful of
/// outliers rather than a property of the distribution.
inline constexpr std::size_t kMinTailSamples = 10;

inline bool tail_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinTailSamples;
}

/// Completed work per wall second.
inline double rate(std::uint64_t completed, double wall_s) {
  if (!(wall_s > 0.0)) throw std::invalid_argument("rate: wall time <= 0");
  return static_cast<double>(completed) / wall_s;
}

/// An open-loop send schedule shared by `workers` threads: the fleet
/// offers `offered_per_s` requests per second in total, worker w sends
/// its j-th request at start + (j * workers + w) / offered_per_s, so
/// the workers interleave evenly and the schedule never depends on how
/// fast earlier requests completed.
struct PacedSchedule {
  Clock::time_point start;
  double offered_per_s = 1.0;
  std::size_t workers = 1;

  Clock::time_point due(std::size_t worker, std::uint64_t j) const {
    const double slot =
        static_cast<double>(j) * static_cast<double>(workers) +
        static_cast<double>(worker);
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(slot / offered_per_s));
  }
};

/// Latency charged to a request due at `due` that completed at `done`:
/// the service time plus however late the request started.
inline double latency_from_due(Clock::time_point due, Clock::time_point done) {
  return seconds_between(due, done);
}

// Medians over short slices of a phase. A host pause that ruins a few
// slices moves the headline by a few ranks instead of by its own size.

/// Per whole window of `window_s` in [0, span_s): the q-quantile of the
/// `values` whose time `at_s` falls in it. Windows holding fewer than
/// `min_samples` samples are skipped.
inline std::vector<double> windowed_percentiles(const std::vector<float>& at_s,
                                                const std::vector<double>& values,
                                                double span_s, double window_s,
                                                double q,
                                                std::size_t min_samples) {
  if (at_s.size() != values.size() || !(window_s > 0.0)) {
    throw std::invalid_argument("windowed_percentiles: bad input");
  }
  const auto windows = static_cast<std::size_t>(std::floor(span_s / window_s));
  std::vector<std::vector<double>> bins(windows);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!(at_s[i] >= 0.0f)) continue;
    const auto w = static_cast<std::size_t>(at_s[i] / window_s);
    if (w < windows) bins[w].push_back(values[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& bin : bins) {
    if (bin.empty() || bin.size() < min_samples) continue;
    std::sort(bin.begin(), bin.end());
    out.push_back(percentile_sorted(bin, q));
  }
  return out;
}

/// Nearest-rank q-quantile of a non-empty figure list.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile: no values");
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

/// Median of a non-empty figure list.
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Paced latency by trace position. Worker w's j-th paced send replays
/// step j % pass_steps[w] of its pass. Each worker's pass is cut into
/// whole slices of `slice_steps` steps; each complete visit of a slice
/// (the worker replaying all of it within one phase) gives one p50. A
/// slow spell of the host falls on some visits of a slice, while the
/// trace's cost, which varies along the pass, is the same on them all.
class SliceVisits {
 public:
  SliceVisits(std::vector<std::size_t> pass_steps, std::size_t slice_steps)
      : pass_steps_(std::move(pass_steps)), slice_steps_(slice_steps) {
    if (slice_steps_ == 0) {
      throw std::invalid_argument("SliceVisits: empty slices");
    }
    for (std::size_t pass : pass_steps_) {
      first_slice_.push_back(p50s_.size());
      p50s_.resize(p50s_.size() + pass / slice_steps_);
    }
  }

  /// One phase: `latency` holds each worker's samples in send order,
  /// worker after worker, `per_worker[w]` of them.
  void add_phase(const std::vector<double>& latency,
                 const std::vector<std::size_t>& per_worker) {
    if (per_worker.size() != pass_steps_.size()) {
      throw std::invalid_argument("SliceVisits: worker count differs");
    }
    std::size_t total = 0;
    for (std::size_t n : per_worker) total += n;
    if (total != latency.size()) {
      throw std::invalid_argument("SliceVisits: sample count differs");
    }
    std::size_t offset = 0;
    std::vector<double> visit;
    for (std::size_t w = 0; w < per_worker.size(); ++w) {
      const std::size_t n = per_worker[w];
      const std::size_t slices = pass_steps_[w] / slice_steps_;
      for (std::size_t pass_start = 0; slices > 0 && pass_start < n;
           pass_start += pass_steps_[w]) {
        for (std::size_t s = 0; s < slices; ++s) {
          const std::size_t begin = pass_start + s * slice_steps_;
          if (begin + slice_steps_ > n) break;
          const auto first =
              latency.begin() + static_cast<std::ptrdiff_t>(offset + begin);
          visit.assign(first,
                       first + static_cast<std::ptrdiff_t>(slice_steps_));
          std::sort(visit.begin(), visit.end());
          p50s_[first_slice_[w] + s].push_back(
              percentile_sorted(visit, 0.5));
        }
      }
      offset += n;
    }
  }

  /// Per slice, the q-quantile of its visits' p50s; then the median
  /// over the slices that were visited.
  double median_of_slices(double q) const {
    std::vector<double> per_slice;
    for (const std::vector<double>& p50s : p50s_) {
      if (p50s.empty()) continue;
      std::vector<double> sorted = p50s;
      std::sort(sorted.begin(), sorted.end());
      per_slice.push_back(percentile_sorted(sorted, q));
    }
    if (per_slice.empty()) throw std::invalid_argument("SliceVisits: no visit");
    std::sort(per_slice.begin(), per_slice.end());
    return percentile_sorted(per_slice, 0.5);
  }

  std::size_t visits() const {
    std::size_t n = 0;
    for (const std::vector<double>& p50s : p50s_) n += p50s.size();
    return n;
  }

 private:
  std::vector<std::size_t> pass_steps_;
  std::size_t slice_steps_;
  std::vector<std::size_t> first_slice_;  ///< per worker
  std::vector<std::vector<double>> p50s_;  ///< per slice, one per visit
};

/// Closed-loop completion rate of `workers` threads from the wall
/// seconds each took for each successive batch of `batch` completions:
/// the median batch's rate per worker, times the workers. A batch lasts
/// microseconds to milliseconds, so pauses of the host fall in the tail
/// of the batch times instead of in the rate.
inline double closed_loop_rate(const std::vector<double>& batch_s,
                               std::uint64_t batch, std::size_t workers) {
  return rate(batch, median(batch_s)) * static_cast<double>(workers);
}

}  // namespace scanbench

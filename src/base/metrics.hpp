#pragma once

/// \file metrics.hpp
/// The toolkit-wide observability layer.
///
/// RADAR-style deployments report per-stage timing and error CDFs as
/// first-class outputs; after the compiled kernels, parallel ingest,
/// and fault quarantine the toolkit could *do* the work fast but could
/// not *say* what it did — how many scans were rejected, where ingest
/// time went, what p99 locate latency looks like. `MetricsRegistry`
/// answers those questions from the running system:
///
///  * `Counter`    — monotonic lock-free event count (files parsed,
///                   degraded fixes, injected faults);
///  * `Gauge`      — last-written instantaneous value (queue depth,
///                   Kalman innovation magnitude);
///  * `HistogramMetric` — a distribution with sharded atomic bins
///                   (latencies, sizes); bin geometry and snapshot
///                   materialization reuse `stats::Histogram`;
///  * `ScopedTimer` / `TraceSpan` — RAII monotonic-clock timing into a
///                   histogram (plus a call counter for spans);
///  * `SampleCountdown` / `StageClock` — the per-scan hot path times
///                   one call in `kSampleEvery` per thread, split into
///                   stages, and reads no clock on the others.
///
/// Instrumented code pays one relaxed atomic RMW per event on the hot
/// path, on a cache line of its own thread's shard (counters and
/// histograms keep `detail::kShards` per-thread shards, merged when
/// read); name lookup happens once per call site through a
/// function-local `static Counter& c = metrics::counter("...")`.
/// `MetricsRegistry::global()` is immortal (never destroyed) so worker
/// threads draining during process exit can still record safely.
///
/// Snapshots (`registry.snapshot()`) are plain data: deterministic
/// (names sorted), exportable as aligned text (`to_text`) or JSON
/// (`write_json` / `to_json`). `examples/locate_tool --stats`,
/// `examples/site_survey --stats`, and both perf benches emit them;
/// docs/OBSERVABILITY.md specifies the naming scheme and formats.

#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.hpp"

namespace loctk::metrics {

namespace detail {

/// Per-thread shards behind every Counter and HistogramMetric.
inline constexpr std::size_t kShards = 8;

/// Hands out shard indices round-robin, so the first kShards threads
/// to record never share a shard.
std::size_t next_thread_shard();

/// The calling thread's shard, fixed on its first record.
inline std::size_t this_thread_shard() {
  static thread_local const std::size_t shard = next_thread_shard();
  return shard;
}

}  // namespace detail

/// Monotonic event counter. Each thread adds into its own cache-line
/// shard with one relaxed atomic RMW; value() sums the shards, so
/// concurrent totals are exact. Cross-counter ordering is not
/// guaranteed (snapshots are statistically, not transactionally,
/// consistent).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[detail::this_thread_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[detail::kShards];
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the value to `v` when it is below: a high-water mark that
  /// racing writers cannot lower (e.g. a count that only grows).
  void raise_to(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bin layout of a `HistogramMetric`. The default is the latency
/// layout: log10(seconds) from 100 ns to 100 s, six bins per decade,
/// which keeps one layout serving everything from a sub-microsecond
/// kernel to a multi-second ingest without tuning per call site.
struct HistogramOptions {
  /// Domain bounds. With `log_scale`, these are log10 of the recorded
  /// value (the default [-7, 2] spans 1e-7 s .. 1e2 s).
  double lo = -7.0;
  double hi = 2.0;
  std::size_t bins = 54;
  /// Record log10(value) instead of the value itself (values <= 0
  /// clamp to the underflow bin). Quantile estimates are reported back
  /// in natural units either way.
  bool log_scale = true;
  /// Unit label for exports ("s", "ft", "bytes").
  std::string unit = "s";
};

/// Summary of one histogram at snapshot time.
struct HistogramSnapshot {
  std::string name;
  HistogramOptions options;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when empty.
  double max = 0.0;
  /// Merged bins in the (possibly log10) domain, under/overflow
  /// included — a plain `stats::Histogram` so downstream code can
  /// reuse mass()/mode_bin()/probability().
  stats::Histogram bins{0.0, 1.0, 1};

  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  /// Quantile estimate in natural units, interpolated within the
  /// containing bin. Returns 0 when empty.
  double quantile(double q) const;
};

/// A concurrent histogram: `kShards` independent shards, each holding
/// atomic bin counters plus its own count, sum, min and max (a thread
/// records into its own shard, so concurrent recorders do not contend
/// on the same cache lines), merged at snapshot time into a
/// `stats::Histogram`. A single-threaded recorder fills one shard, so
/// its snapshot equals an unsharded one bit for bit. Bin geometry is
/// delegated to an embedded `stats::Histogram` so edge math exists in
/// exactly one place.
class HistogramMetric {
 public:
  explicit HistogramMetric(HistogramOptions options = {});

  /// Records one value (natural units; log10 applied internally when
  /// configured). Lock-free.
  void record(double value) { record_n(value, 1); }

  /// Records `n` occurrences of `value` — the batch form used when a
  /// caller times N homogeneous operations with one clock pair.
  void record_n(double value, std::uint64_t n);

  std::uint64_t count() const;

  HistogramSnapshot snapshot(std::string name) const;
  void reset();

  const HistogramOptions& options() const { return options_; }

  static constexpr std::size_t kShards = detail::kShards;

 private:
  struct alignas(64) Shard {
    /// bins + 2 slots: [0] underflow, [1..bins] bins, [bins+1] overflow.
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};
  };

  HistogramOptions options_;
  stats::Histogram edges_;  ///< counts unused; bin geometry only.
  Shard shards_[kShards];
};

/// One full registry snapshot: plain sorted data, safe to copy around
/// and compare.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Aligned human-readable table (one metric per line).
  std::string to_text() const;
  /// JSON object {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}; stable key order, non-zero bins only.
  void write_json(std::ostream& os) const;
  std::string to_json() const;
};

/// Named metric registry. Lookup/registration takes a mutex; the
/// returned references are stable for the registry's lifetime, so call
/// sites resolve once and then touch only atomics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point
  /// reports to. Intentionally leaked: safe to use from any thread at
  /// any point of process shutdown.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `options` apply only on first registration of `name`.
  HistogramMetric& histogram(std::string_view name,
                             const HistogramOptions& options = {});

  MetricsSnapshot snapshot() const;

  /// Zeroes every metric's value; registered objects (and outstanding
  /// references to them) stay valid. For tests and tools.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>>
      histograms_;
};

/// Global-registry shorthands for instrumentation sites:
///   static metrics::Counter& c = metrics::counter("ingest.files");
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
HistogramMetric& histogram(std::string_view name,
                           const HistogramOptions& options = {});

/// RAII monotonic-clock timer: records elapsed seconds into `hist` on
/// destruction (once per `weight` homogeneous operations — a batch of
/// 64 locates records 64 samples of elapsed/64 each).
class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramMetric& hist, std::uint64_t weight = 1)
      : ScopedTimer(&hist, weight) {}
  /// A null `hist` (an unsampled call) reads no clock and records
  /// nothing.
  explicit ScopedTimer(HistogramMetric* hist, std::uint64_t weight = 1)
      : hist_(hist), weight_(weight),
        start_(hist ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (hist_ && weight_ > 0) {
      const double per_op =
          elapsed_s() / static_cast<double>(weight_);
      hist_->record_n(per_op, weight_);
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double elapsed_s() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  HistogramMetric* const hist_;
  const std::uint64_t weight_;
  const std::chrono::steady_clock::time_point start_;
};

/// Named RAII span against the global registry: duration lands in the
/// `trace.<name>.seconds` histogram and `trace.<name>.calls` counts
/// entries. For pipeline stages ("ingest", "evaluate") rather than
/// per-event hot paths — the name lookup happens per construction.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name);
  ~TraceSpan() = default;  // timer_ records on destruction

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  double elapsed_s() const { return timer_.elapsed_s(); }

 private:
  ScopedTimer timer_;
};

/// One call in this many, per thread and call site, is timed on the
/// per-scan hot path; histograms fed that way count the sampled calls
/// only, and their call counters stay exact.
inline constexpr std::uint32_t kSampleEvery = 64;

/// Picks the sampled calls of one call site on one thread: the
/// thread's first call, then every kSampleEvery-th after it. An
/// unsampled call pays one predictable branch and a decrement; keep
/// one `thread_local` instance per call site.
class SampleCountdown {
 public:
  bool tick() {
    if (left_ != 0) [[likely]] {
      --left_;
      return false;
    }
    left_ = kSampleEvery - 1;
    return true;
  }

 private:
  std::uint32_t left_ = 0;
};

/// Boundary timestamps splitting one sampled call into consecutive
/// stages: construction starts the first stage and end(s) closes stage
/// `s`, which starts where the previous stage ended. A stage skipped
/// between two end() calls (an early return) lasts zero, so the stages
/// always partition the time from construction to the last end(), and
/// their seconds sum to total_seconds(). `Stage` is an enum whose
/// `kCount` is the number of stages; end() takes them in order.
template <class Stage>
class StageClock {
 public:
  static constexpr std::size_t kStages =
      static_cast<std::size_t>(Stage::kCount);

  StageClock() { bounds_[0] = Clock::now(); }

  void end(Stage stage) {
    const auto s = static_cast<std::size_t>(stage);
    assert(s >= ended_ && s < kStages);
    const Clock::time_point now = Clock::now();
    for (; ended_ < s; ++ended_) bounds_[ended_ + 1] = bounds_[ended_];
    bounds_[s + 1] = now;
    ended_ = s + 1;
  }

  double seconds(Stage stage) const {
    const auto s = static_cast<std::size_t>(stage);
    return std::chrono::duration<double>(bounds_[s + 1] - bounds_[s]).count();
  }
  double total_seconds() const {
    return std::chrono::duration<double>(bounds_[ended_] - bounds_[0])
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::array<Clock::time_point, kStages + 1> bounds_;
  std::size_t ended_ = 0;
};

}  // namespace loctk::metrics

#include "core/locator.hpp"

#include <stdexcept>

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"

namespace loctk::core {

namespace {

// Shared across every Locator implementation: the non-virtual entry
// points (the try_locate forms and locate_batch) are the only choke
// points, so counters here see all production traffic regardless of
// algorithm.
metrics::Counter& locate_calls() {
  static metrics::Counter& c = metrics::counter("locate.calls");
  return c;
}
metrics::Counter& locate_degenerate() {
  static metrics::Counter& c = metrics::counter("locate.degenerate");
  return c;
}
metrics::Counter& locate_errors() {
  static metrics::Counter& c = metrics::counter("locate.errors");
  return c;
}
metrics::HistogramMetric& locate_latency() {
  static metrics::HistogramMetric& h =
      metrics::histogram("locate.latency.seconds");
  return h;
}
metrics::Counter& batch_calls() {
  static metrics::Counter& c = metrics::counter("locate.batch.calls");
  return c;
}
metrics::Counter& batch_observations() {
  static metrics::Counter& c =
      metrics::counter("locate.batch.observations");
  return c;
}

/// Whether this thread's next one-argument try_locate is timed.
bool sample_locate() {
  thread_local metrics::SampleCountdown countdown;
  return countdown.tick();
}

/// The shared body of both try_locate forms: the degenerate-input
/// checks in their fixed order, then `score` under the error taxonomy.
/// Only a `timed` call reads the clock.
template <class Score>
Result<LocationEstimate> checked_locate(const Locator& locator, bool empty,
                                        bool finite, bool timed, Score score) {
  locate_calls().increment();
  metrics::ScopedTimer timer(timed ? &locate_latency() : nullptr);
  if (empty) {
    locate_degenerate().increment();
    return Error(ErrorCode::kDegenerate, "empty observation")
        .with_context("locating with " + locator.name());
  }
  if (!finite) {
    locate_degenerate().increment();
    return Error(ErrorCode::kDegenerate,
                 "observation contains non-finite dBm values")
        .with_context("locating with " + locator.name());
  }
  LocationEstimate est;
  try {
    est = score();
  } catch (const std::exception& e) {
    locate_errors().increment();
    return Error(ErrorCode::kInternal, e.what())
        .with_context("locating with " + locator.name());
  }
  if (!est.valid) {
    // The observation was well-formed but the algorithm has no
    // answer: all-unknown BSSIDs, < min_common_aps overlap, or fewer
    // usable ranging circles than the geometry needs.
    locate_degenerate().increment();
    return Error(ErrorCode::kDegenerate,
                 "no usable estimate (observation shares too little "
                 "with the training data)")
        .with_context("locating with " + locator.name());
  }
  return est;
}

}  // namespace

Result<LocationEstimate> Locator::try_locate(const Observation& obs) const {
  return try_locate(obs, sample_locate());
}

Result<LocationEstimate> Locator::try_locate(const Observation& obs,
                                             bool timed) const {
  return checked_locate(*this, obs.empty(), obs.is_finite(), timed,
                        [&] { return locate(obs); });
}

Result<LocationEstimate> Locator::try_locate(const CompiledObservation& q,
                                             bool timed) const {
  return checked_locate(*this, q.empty(), q.finite, timed,
                        [&] { return locate_compiled(q); });
}

LocationEstimate Locator::locate_compiled(const CompiledObservation&) const {
  throw std::logic_error(name() + " has no compiled scoring entry");
}

std::vector<LocationEstimate> Locator::locate_batch(
    std::span<const Observation> obs, concurrency::ThreadPool* pool) const {
  batch_calls().increment();
  batch_observations().add(obs.size());
  locate_calls().add(obs.size());
  // One timer for the whole batch, weighted so the latency histogram
  // sees the per-observation mean n times. Per-item timers inside the
  // parallel body would measure contention, not locate cost.
  metrics::ScopedTimer timer(locate_latency(), obs.size());
  std::vector<LocationEstimate> out(obs.size());
  locate_batch_impl(obs, pool, out);
  std::uint64_t degenerate = 0;
  for (const LocationEstimate& est : out) {
    if (!est.valid) ++degenerate;
  }
  if (degenerate > 0) locate_degenerate().add(degenerate);
  return out;
}

void Locator::locate_batch_impl(std::span<const Observation> obs,
                                concurrency::ThreadPool* pool,
                                std::span<LocationEstimate> out) const {
  auto body = [&](std::size_t i) { out[i] = locate(obs[i]); };
  if (pool && obs.size() > 1) {
    concurrency::parallel_for(*pool, 0, obs.size(), body);
  } else {
    for (std::size_t i = 0; i < obs.size(); ++i) body(i);
  }
}

LocationEstimate CompiledLocator::locate(const Observation& obs) const {
  return locate_compiled(compiled_->compile_observation(obs));
}

}  // namespace loctk::core

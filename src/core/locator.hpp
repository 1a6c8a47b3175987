#pragma once

/// \file locator.hpp
/// The common interface every localization algorithm implements.
///
/// The paper's two-phase structure (train, then locate) makes the
/// approaches drop-in interchangeable: both §5.1 (probabilistic) and
/// §5.2 (geometric) consume an `Observation` and produce a position —
/// one snapped to a training point, one a free coordinate. The
/// estimate carries both forms plus a confidence score so evaluation
/// code and the Compositor treat all algorithms uniformly.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "core/compiled_db.hpp"
#include "core/observation.hpp"
#include "geom/vec2.hpp"
#include "traindb/database.hpp"

namespace loctk::concurrency {
class ThreadPool;
}

namespace loctk::core {

/// Result of a locate() call.
struct LocationEstimate {
  /// True when the locator produced any answer at all; the fields
  /// below are meaningless when false (observation empty, no overlap
  /// with the training universe, degenerate geometry...).
  bool valid = false;

  /// Estimated world position (feet).
  geom::Vec2 position;

  /// For fingerprint locators: the winning training-point location
  /// name ("kitchen"); empty for coordinate-valued locators.
  std::string location_name;

  /// Algorithm-specific confidence. Fingerprint locators report the
  /// winning log-likelihood; geometric locators report the negative
  /// RMS circle residual. Only comparable within one algorithm.
  double score = 0.0;

  /// How many APs contributed to the estimate.
  int aps_used = 0;
};

/// Abstract localization algorithm, trained at construction time.
class Locator {
 public:
  virtual ~Locator() = default;

  /// Estimates the client position for one observation.
  virtual LocationEstimate locate(const Observation& obs) const = 0;

  /// The compiled radio map this locator scores against, or nullptr
  /// for locators that read an Observation directly (geometric, grid,
  /// Bayes grid, tracked). LocationService folds its scan window onto
  /// this database and calls try_locate(CompiledObservation, timed)
  /// when set.
  virtual const CompiledDatabase* compiled_database() const {
    return nullptr;
  }

  /// Taxonomy-speaking locate: instead of the ambiguous
  /// `valid = false`, degenerate inputs come back as a typed
  /// `loctk::Error` saying *why* there is no answer — kDegenerate for
  /// an empty observation, non-finite dBm, no overlap with the trained
  /// universe, or too few usable ranging circles; kInternal if the
  /// algorithm itself threw. Implemented once on top of the virtual
  /// locate(), so every locator (and every future one) gets the same
  /// degraded-mode contract for free. Times one call in
  /// metrics::kSampleEvery per thread into `locate.latency.seconds`
  /// (every call counts in `locate.calls`).
  Result<LocationEstimate> try_locate(const Observation& obs) const;

  /// try_locate with the sampling left to the caller: only a `timed`
  /// call reads the clock, so a served scan passes its own sampling
  /// decision down and an unsampled one reads none. The compiled form
  /// takes a query already lowered onto compiled_database(): the same
  /// checks in the same order (empty, then non-finite mean), the same
  /// error texts, and the same `locate.*` metrics, with no Observation
  /// built. A locator without a compiled database answers kInternal.
  Result<LocationEstimate> try_locate(const Observation& obs,
                                      bool timed) const;
  Result<LocationEstimate> try_locate(const CompiledObservation& q,
                                      bool timed) const;

  /// Scores a batch of independent observations (many concurrent
  /// clients, or a replayed capture). With a pool, the batch is
  /// chunked across its workers via `concurrency::parallel_for`;
  /// results are index-aligned with `obs` and identical to calling
  /// locate() per element. Feeds the same `locate.*` metrics as
  /// try_locate, once per observation, around locate_batch_impl.
  std::vector<LocationEstimate> locate_batch(
      std::span<const Observation> obs,
      concurrency::ThreadPool* pool = nullptr) const;

  /// Short algorithm name for reports ("probabilistic-ml", ...).
  virtual std::string name() const = 0;

 protected:
  /// The scoring entry behind try_locate(CompiledObservation); `q` is
  /// lowered onto compiled_database(). The default throws
  /// std::logic_error: the locator has no compiled form.
  virtual LocationEstimate locate_compiled(
      const CompiledObservation& q) const;

  /// Writes out[i] = locate(obs[i]); locate_batch wraps it with the
  /// metrics. The default runs locate() per element, chunked over
  /// `pool` when given — locate() is const and training state is
  /// immutable, so that is safe for every locator. Overrides must
  /// produce identical results.
  virtual void locate_batch_impl(std::span<const Observation> obs,
                                 concurrency::ThreadPool* pool,
                                 std::span<LocationEstimate> out) const;
};

/// Base of the fingerprint locators that score a CompiledObservation
/// (probabilistic, place recognition, k-NN, SSD, histogram). Each
/// implements only locate_compiled; an Observation is lowered here, in
/// one place, and the live scan path skips the Observation entirely.
class CompiledLocator : public Locator {
 public:
  /// compile_observation, then locate_compiled.
  LocationEstimate locate(const Observation& obs) const final;

  const CompiledDatabase* compiled_database() const final {
    return compiled_.get();
  }
  const CompiledDatabase& compiled() const { return *compiled_; }
  const traindb::TrainingDatabase& database() const {
    return compiled_->database();
  }

 protected:
  explicit CompiledLocator(std::shared_ptr<const CompiledDatabase> compiled)
      : compiled_(std::move(compiled)) {}

  LocationEstimate locate_compiled(
      const CompiledObservation& q) const override = 0;

  std::shared_ptr<const CompiledDatabase> compiled_;
};

}  // namespace loctk::core

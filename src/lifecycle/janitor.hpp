#pragma once

/// \file janitor.hpp
/// The control-plane janitor driving one site's fingerprint lifecycle:
/// survey intake → quarantine → delta-compile → `swap_site`.
///
/// PR 7 shipped the hot-swap machinery (LocationServer::swap_site,
/// epoch/RCU reclamation); this is the missing producer. The janitor
/// owns the living artifacts for one site:
///
///  * the currently-published `CompiledDatabase` (the serve snapshot's
///    source of truth),
///  * a `DriftMonitor` fed from serve traffic, which says *when* the
///    map needs refreshing and *which* points to resurvey,
///  * a `SurveyIntake`, which validates/quarantines resurvey dwells.
///
/// `tick()` is the whole re-publish protocol (docs/SERVING.md
/// "Fingerprint lifecycle"): when enough accepted surveys pend, drain
/// them into a `DatabaseDelta`, delta-compile the published database
/// (oracle-equal to a from-scratch rebuild), build a fresh locator via
/// the injected factory, `swap_site` it under live traffic, and rebase
/// the drift monitor onto the new baseline. Versioning rides the
/// server's swap generation. Reports through `lifecycle.republish.*`.
///
/// Thread-safety: the janitor is a single control-plane actor — call
/// observe_fix()/submit_survey()/tick() from one thread. The *swap* it
/// performs is safe under full data-plane traffic; that is the point.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "base/metrics.hpp"
#include "core/compiled_db.hpp"
#include "core/location_service.hpp"
#include "core/locator.hpp"
#include "lifecycle/drift.hpp"
#include "lifecycle/intake.hpp"
#include "serve/location_server.hpp"

namespace loctk::lifecycle {

/// Builds the site's serving locator from a compilation. Injected so
/// the lifecycle layer stays agnostic of which algorithm (and which
/// settings) a deployment serves.
using LocatorFactory =
    std::function<std::shared_ptr<const core::Locator>(
        std::shared_ptr<const core::CompiledDatabase>)>;

struct JanitorConfig {
  DriftConfig drift;
  IntakeConfig intake;
  /// tick() republishes once at least this many accepted surveys pend.
  std::size_t min_republish_batch = 1;
};

/// What one republish did.
struct RepublishReport {
  std::uint64_t generation = 0;     ///< server swap generation published
  std::size_t points_upserted = 0;
  std::size_t universe_before = 0;
  std::size_t universe_after = 0;
};

class LifecycleJanitor {
 public:
  /// `compiled` must be the compilation behind `site`'s currently
  /// published snapshot (the janitor becomes its owner of record).
  /// `server` must outlive the janitor.
  LifecycleJanitor(serve::LocationServer& server, serve::SiteId site,
                   std::shared_ptr<const core::CompiledDatabase> compiled,
                   LocatorFactory factory, JanitorConfig config = {});

  /// Feeds drift evidence from the data plane: a valid fix's winning
  /// place attributes `obs` to that training point. Invalid/degraded
  /// fixes carry no attribution and are ignored.
  void observe_fix(const core::ServiceFix& fix, const core::Observation& obs);

  /// Queues one resurvey dwell through validation/quarantine.
  Result<traindb::TrainingPoint> submit_survey(const SurveyDwell& dwell);

  /// One lifecycle turn: republishes when enough accepted surveys
  /// pend, else does nothing. Returns the report when a swap happened.
  std::optional<RepublishReport> tick();

  DriftMonitor& drift() { return drift_; }
  const DriftMonitor& drift() const { return drift_; }
  SurveyIntake& intake() { return intake_; }
  const SurveyIntake& intake() const { return intake_; }

  const std::shared_ptr<const core::CompiledDatabase>& compiled() const {
    return compiled_;
  }
  serve::SiteId site() const { return site_; }

 private:
  serve::LocationServer& server_;
  serve::SiteId site_;
  std::shared_ptr<const core::CompiledDatabase> compiled_;
  LocatorFactory factory_;
  JanitorConfig config_;
  DriftMonitor drift_;
  SurveyIntake intake_;

  metrics::Counter* republish_counter_;
  metrics::Counter* points_counter_;
  metrics::Gauge* generation_gauge_;
  metrics::HistogramMetric* republish_hist_;
};

}  // namespace loctk::lifecycle

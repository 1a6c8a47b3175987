#pragma once

/// \file probes.hpp
/// Layer probes: the benchmark's own calls into each layer's public
/// functions, timed from outside the library with `steady_clock`.
///
/// Calls that take nanoseconds (an epoch pin, a warm session lookup, a
/// metrics record, a Kalman update) are timed in fixed batches of
/// `kBatch` and each batch contributes one per-call sample; a single
/// call would be shorter than the clock read itself.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "lifecycle/drift.hpp"
#include "lifecycle/intake.hpp"
#include "lifecycle/janitor.hpp"
#include "replay.hpp"
#include "testkit/scenario.hpp"

namespace scanbench {

inline constexpr std::size_t kBatch = 32;

/// Per-call seconds of each scan-path stage, probed on the trace's
/// per-device 8-scan windows (the service's window size).
struct StageSamples {
  std::vector<double> window_obs_s;     ///< Observation::from_scans
  std::vector<double> compile_obs_s;    ///< compile_observation
  std::vector<double> locate_s;         ///< served try_locate
  std::vector<double> locate_dense_s;   ///< exhaustive twin's try_locate
  std::vector<double> kalman_s;         ///< KalmanTracker::update_at
  std::size_t windows = 0;
};

StageSamples probe_stages(const Inputs& inputs, const ServedSites& sites,
                          double seconds);

/// Per-call seconds of the shared data-plane primitives, called from
/// `workers` threads at once.
struct MicroSamples {
  std::vector<double> pin_s;      ///< EpochDomain::ReadGuard pin + unpin
  std::vector<double> session_s;  ///< warm SessionTable::find_or_create
  std::vector<double> metrics_s;  ///< Counter::increment + Histogram::record
};

MicroSamples probe_micro(std::size_t workers, std::size_t devices,
                         double seconds);

/// The campus dashboard: one fleet frame per tick of `trace`.
struct FrameSamples {
  std::vector<double> frame_s;   ///< spec build + render
  std::vector<double> spec_s;    ///< FleetFrameBuilder::frame
  std::vector<double> render_s;  ///< FleetCompositor::render
  std::uint64_t tiles = 0;       ///< compose.tiles delta
  std::vector<std::string> violations;
};

FrameSamples run_frames(const loctk::testkit::Scenario& scenario,
                        const loctk::testkit::ScanTrace& trace);

/// office_republish's control plane: one thread resurveys and
/// republishes every site each `republish_every_scans` scans of fleet
/// progress. Untraced it drives `LifecycleJanitor::tick`; traced it
/// makes tick's public calls itself so each gets a span.
class Republisher {
 public:
  struct Samples {
    std::vector<double> republish_s;  ///< intake + tick, per site
    std::vector<double> locator_build_s;
    // Traced only:
    std::vector<double> intake_s;
    std::vector<double> tick_s;
    std::vector<double> delta_compile_s;
    std::vector<double> swap_s;
    std::vector<double> rebase_s;
    std::uint64_t waves = 0;
    std::uint64_t failed = 0;
  };

  Republisher(const WorkloadSpec& w, const Inputs& inputs,
              const ServedSites& sites, loctk::serve::LocationServer& server,
              bool traced);

  /// The janitors' locator factory captures `this`.
  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  /// The ControlPlane body (see replay.hpp).
  void run(const std::atomic<std::uint64_t>& progress,
           const std::atomic<bool>& workers_done);

  const Samples& samples() const { return samples_; }
  /// The compilation site `s` currently serves.
  std::shared_ptr<const loctk::core::CompiledDatabase> compiled(
      std::size_t s) const;

 private:
  void republish(std::size_t site, std::uint64_t wave);

  const WorkloadSpec& w_;
  const Inputs& inputs_;
  loctk::serve::LocationServer& server_;
  bool traced_;
  Samples samples_;
  std::vector<std::unique_ptr<loctk::lifecycle::LifecycleJanitor>> janitors_;
  // Traced path state.
  std::vector<std::shared_ptr<const loctk::core::CompiledDatabase>> current_;
  std::vector<std::unique_ptr<loctk::lifecycle::SurveyIntake>> intakes_;
  std::vector<std::unique_ptr<loctk::lifecycle::DriftMonitor>> drift_;
};

}  // namespace scanbench

#pragma once

/// \file server_soak.hpp
/// The soak harness: recorded fleets replayed through one
/// `serve::LocationServer`, with hot swaps landing under load.
///
/// `run_soak` takes caller-supplied sites — a recorded `ScanTrace`
/// plus the training database every published snapshot compiles from
/// — stands one server up with a shard per site, replays every device's
/// scans in capture order through `LocationServer::on_scan` on a thread
/// pool, and repeatedly republishes every site's snapshot while the
/// traffic runs: the worker whose scan crosses a swap-wave boundary
/// performs the wave inline while the rest of the fleet keeps scanning
/// through it. A one-site run is the fleet soak; `run_server_soak`
/// synthesizes a multi-site workload (one `Scenario` per site, each
/// with its own fleet and fault schedule) and runs it the same way.
///
/// The run is judged twice:
///
///  * the **deterministic report** (`RunReport`): tallies and the
///    accuracy CDF, assembled from per-device slots merged in (site,
///    device) order, so it is byte-equal for 1 thread or 64;
///  * the **invariants** (`SoakResult::violations`): the fix partition
///    sums to the scan count; the `service.scans`,
///    `service.rejected_samples` and `service.degraded_fixes` deltas
///    match the report and the trace (rejected samples: the non-finite
///    ones plus every sample of a scan over LocationService's caps);
///    every planned swap wave ran; zero uncaught pool errors; per
///    shard, the scan counter matches the site's trace, the generation
///    counts every wave, one session exists per scanning device, every
///    retired snapshot was reclaimed, no reader stalled across two
///    swaps, the session table never filled and no scan unwound
///    (`serve.shard.<site>.errors` stays 0); and the p99 on_scan
///    latency stays bounded.
///    An empty list is the pass signal; CI fails on anything else.
///
/// Determinism under swaps: each swap installs a locator freshly
/// *recompiled from the same training database* (what a production
/// republish of an unchanged survey does), so the answer stream is
/// independent of exactly when a swap lands relative to any scan. That
/// is what lets the byte-determinism gate coexist with genuinely
/// concurrent swap traffic. The swap *machinery* still takes the full
/// beating: pointer publication, epoch bumps, retirement, and
/// reclamation all race live readers, and TSan watches.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "concurrency/thread_pool.hpp"
#include "core/location_service.hpp"
#include "testkit/run_report.hpp"
#include "testkit/scenario.hpp"
#include "testkit/trace.hpp"
#include "traindb/database.hpp"

namespace loctk::testkit {

/// How a soak replays its sites.
struct SoakConfig {
  /// Per-device session behavior inside the server.
  core::LocationServiceConfig service;
  /// Pool to replay on; nullptr uses the process default pool.
  concurrency::ThreadPool* pool = nullptr;
  /// Every site's snapshot is re-published each time the fleet
  /// advances this many scans; 0 derives total_scans / 16 (so a run
  /// always sees ~16 swap waves). Exactly total_scans / swap_every
  /// waves run, each triggered by the worker whose scan crossed the
  /// boundary — an exact invariant independent of scheduling.
  std::size_t swap_every_scans = 0;
  /// Invariant bound on per-scan on_scan() p99 latency; <= 0 disables
  /// (use when running under sanitizers on loaded CI machines).
  double max_p99_on_scan_s = 0.25;
};

/// One replayed site. Its shard is named after `trace.scenario`, so
/// the sites of one run need distinct scenario names; every snapshot
/// it publishes is a `ProbabilisticLocator` over a fresh compilation
/// of `database`.
struct SoakSite {
  const ScanTrace& trace;
  const traindb::TrainingDatabase& database;
};

/// Everything a soak run produced. Only the reports are
/// deterministic; the latency figures depend on the machine and are
/// reported beside them, never inside them.
struct SoakResult {
  /// Combined report (sites merged in site order, devices in device
  /// order), named by the caller. For one site it equals
  /// `site_reports[0]`.
  RunReport report;
  /// Per-site reports, index-aligned with the sites.
  std::vector<RunReport> site_reports;
  /// FNV-1a digest of each device's fix stream (validity, position
  /// bits, window fill, place and degraded reason of every fix, in scan
  /// order), sites in order and each site's devices in device order.
  /// Deterministic like the reports.
  std::vector<std::uint64_t> device_fix_digests;
  /// Human-readable invariant breaches; empty means the run passed.
  std::vector<std::string> violations;
  /// Swap waves performed (each wave swaps every site once).
  std::uint64_t swap_waves = 0;
  /// Waves that landed while replay traffic was still in flight.
  std::uint64_t swap_waves_under_load = 0;
  /// Largest snapshot generation reached by any site.
  std::uint64_t max_generation = 0;
  /// Campus fleet frames written (run_server_soak's `frames_dir`).
  std::uint64_t frames_written = 0;
  double wall_s = 0.0;
  double mean_on_scan_s = 0.0;
  double p99_on_scan_s = 0.0;

  bool ok() const { return violations.empty(); }
};

/// Replays `sites` through one server with swap waves under load,
/// checking the soak invariants; the combined report is named `name`.
SoakResult run_soak(const std::vector<SoakSite>& sites, std::string name,
                    const SoakConfig& config = {});

/// The standing fault schedule: NaN bursts, lost scans, and vanished
/// strongest-AP rows spread across the spec's fleet, so rejection and
/// degraded coasting stay load-bearing parts of every soak.
void add_fault_schedule(ScenarioSpec& spec);

struct ServerSoakConfig : SoakConfig {
  std::size_t sites = 4;
  std::size_t devices_per_site = 16;
  int scans_per_device = 40;
  std::uint64_t seed = 1;
  /// The first `campus_sites` sites (clamped to `sites`) are
  /// synthesized as multi-floor campuses (ScenarioSpec::campus_fleet:
  /// 1000+ APs, per-floor attenuation, heterogeneous device offsets)
  /// instead of single-floor fleets; everything after synthesis —
  /// replay, swaps, invariants — is site-agnostic, so the campus sites
  /// stress the server with genuinely large universes and snapshots.
  std::size_t campus_sites = 0;
  /// Survey scans per room for campus sites. A campus survey covers
  /// 240 rooms, so the single-site default of 90 would dominate the
  /// soak's wall clock on synthesis alone.
  int campus_train_scans = 6;
  /// Applies `add_fault_schedule` to every site's fleet.
  bool fault_schedule = true;
  /// When non-empty and the first site is a campus, render a
  /// per-tick fleet frame of that site (coverage heat + AP labels +
  /// device ground-truth markers) through `FleetCompositor::render`
  /// and write `frame-NNNN.bmp` files here.
  std::string frames_dir;
  /// Emit every Nth tick (1 = every tick).
  std::size_t frame_every_ticks = 1;
};

/// Synthesizes the multi-site workload and runs it through `run_soak`.
SoakResult run_server_soak(const ServerSoakConfig& config = {});

}  // namespace loctk::testkit

#pragma once

/// \file server_soak.hpp
/// The server-level load generator: many sites × many devices through
/// one `serve::LocationServer`, with hot swaps landing under load.
///
/// This extends the per-locator fleet soak (soak.hpp) up one layer: a
/// multi-venue workload is synthesized (one `Scenario` per site, each
/// with its own fleet and fault schedule), every device replays its
/// recorded scans through `LocationServer::on_scan` on a shared thread
/// pool, and — the part the fleet soak cannot exercise — every site's
/// snapshot is repeatedly republished while the traffic runs: the
/// worker whose scan crosses a swap-wave boundary performs the wave
/// inline while the rest of the fleet keeps scanning through it.
///
/// Determinism under swaps: each swap installs a locator freshly
/// *recompiled from the same training database* (what a production
/// republish of an unchanged survey does), so the answer stream is
/// independent of exactly when a swap lands relative to any scan. That
/// is what lets the byte-determinism gate (`RunReport` equal across
/// thread counts) coexist with genuinely concurrent swap traffic. The
/// swap *machinery* still takes the full beating: pointer publication,
/// epoch bumps, retirement, and reclamation all race live readers, and
/// TSan watches.
///
/// Invariants checked on top of the fleet soak's: per-shard scan
/// counters sum to the replayed count, every planned swap was
/// performed, all retired snapshots were reclaimed by the end, session
/// tables hold exactly one session per device, and zero reader stalls
/// (no reader pinned across two consecutive swaps).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "concurrency/thread_pool.hpp"
#include "core/location_service.hpp"
#include "testkit/run_report.hpp"

namespace loctk::testkit {

struct ServerSoakConfig {
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
  /// Standing fault schedule (NaN RSSI / dropped scans / vanished
  /// strongest AP) applied to every site's fleet.
  bool fault_schedule = true;
  /// Invariant bound on p99 on_scan latency; <= 0 disables.
  double max_p99_on_scan_s = 0.25;
  /// When non-empty and the first site is a campus, render a
  /// per-tick fleet frame of that site (coverage heat + AP labels +
  /// device ground-truth markers) through `FleetCompositor::render`
  /// and write `frame-NNNN.bmp` files here.
  std::string frames_dir;
  /// Emit every Nth tick (1 = every tick).
  std::size_t frame_every_ticks = 1;
};

struct ServerSoakResult {
  /// Combined deterministic report (sites merged in site order,
  /// devices in device order). Byte-equal across thread counts.
  RunReport report;
  /// Per-site deterministic reports, index-aligned with site ids.
  std::vector<RunReport> site_reports;
  /// Human-readable invariant breaches; empty means the run passed.
  std::vector<std::string> violations;
  /// Swap waves performed (each wave swaps every site once).
  std::uint64_t swap_waves = 0;
  /// Waves that landed while replay traffic was still in flight.
  std::uint64_t swap_waves_under_load = 0;
  /// Largest snapshot generation reached by any site.
  std::uint64_t max_generation = 0;
  /// Campus fleet frames written to `frames_dir`.
  std::uint64_t frames_written = 0;
  double wall_s = 0.0;
  double mean_on_scan_s = 0.0;
  double p99_on_scan_s = 0.0;

  bool ok() const { return violations.empty(); }
};

/// Synthesizes the multi-site workload, runs it, and judges it.
ServerSoakResult run_server_soak(const ServerSoakConfig& config = {});

}  // namespace loctk::testkit

#include "testkit/server_soak.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"
#include "core/compiled_db.hpp"
#include "core/probabilistic.hpp"
#include "floorplan/fleet_compositor.hpp"
#include "image/codec_bmp.hpp"
#include "serve/location_server.hpp"
#include "testkit/fleet_frame.hpp"

namespace loctk::testkit {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-(site, device) tallies, written only by the worker replaying
/// that device and merged in (site, device) order afterwards — the
/// report never sees scheduling order.
struct DeviceSlot {
  std::uint64_t valid = 0;
  std::uint64_t degraded = 0;
  std::uint64_t invalid = 0;
  std::uint64_t fix_digest = kFnvOffset;
  std::vector<double> errors_ft;  // fresh valid fixes, scan order
  std::vector<double> on_scan_s;  // per-scan latency
};

/// FNV-1a of `n` bytes at `data`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Folds everything a fix reports into a device's stream digest.
std::uint64_t fold_fix(std::uint64_t h, const core::ServiceFix& fix) {
  const unsigned char valid = fix.valid ? 1 : 0;
  h = fnv1a(h, &valid, 1);
  h = fnv1a(h, &fix.position.x, sizeof fix.position.x);
  h = fnv1a(h, &fix.position.y, sizeof fix.position.y);
  h = fnv1a(h, &fix.window_fill, sizeof fix.window_fill);
  h = fnv1a(h, fix.place.data(), fix.place.size() + 1);
  return fnv1a(h, fix.degraded_reason.data(), fix.degraded_reason.size() + 1);
}

/// Samples LocationService drops from `scan` at the door: all of an
/// over-cap scan's, otherwise the non-finite ones.
std::uint64_t rejected_samples(const radio::ScanRecord& scan) {
  const bool over_cap =
      scan.samples.size() > core::LocationService::kMaxScanSamples ||
      std::any_of(scan.samples.begin(), scan.samples.end(),
                  [](const radio::ScanSample& s) {
                    return s.bssid.size() >
                           core::LocationService::kMaxBssidBytes;
                  });
  if (over_cap) return scan.samples.size();
  return static_cast<std::uint64_t>(
      std::count_if(scan.samples.begin(), scan.samples.end(),
                    [](const radio::ScanSample& s) {
                      return !std::isfinite(s.rssi_dbm);
                    }));
}

std::string format_violation(const std::string& what, std::uint64_t expected,
                             std::uint64_t actual) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s: expected %llu, got %llu",
                what.c_str(), static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(actual));
  return buf;
}

/// The production republish: a locator freshly compiled from the
/// site's training database. Compilation is deterministic, so every
/// generation scores identically — which is what keeps the run report
/// independent of swap timing.
std::shared_ptr<const core::Locator> make_site_locator(
    const traindb::TrainingDatabase& db) {
  return std::make_shared<const core::ProbabilisticLocator>(
      core::CompiledDatabase::compile(db));
}

serve::DeviceId device_id(std::size_t site, std::uint32_t device) {
  return (static_cast<serve::DeviceId>(site + 1) << 32) |
         (static_cast<serve::DeviceId>(device) + 1);
}

}  // namespace

void add_fault_schedule(ScenarioSpec& spec) {
  const auto devices = static_cast<std::uint32_t>(spec.devices.size());
  for (std::uint32_t d = 0; d < devices; d += 7) {
    spec.faults.push_back({.device = d, .scan_index = (d % 13) + 3,
                           .kind = FaultEvent::Kind::kNonFiniteRssi});
  }
  for (std::uint32_t d = 3; d < devices; d += 11) {
    spec.faults.push_back({.device = d, .scan_index = (d % 17) + 2,
                           .kind = FaultEvent::Kind::kDropScan});
  }
  for (std::uint32_t d = 5; d < devices; d += 9) {
    spec.faults.push_back({.device = d, .scan_index = (d % 19) + 1,
                           .kind = FaultEvent::Kind::kDropStrongestAp});
  }
}

SoakResult run_soak(const std::vector<SoakSite>& sites, std::string name,
                    const SoakConfig& config) {
  concurrency::ThreadPool& pool =
      config.pool ? *config.pool : concurrency::default_pool();
  SoakResult result;

  // --- Stand the server up ----------------------------------------
  std::size_t total_scans = 0;
  std::uint32_t max_devices = 0;
  for (const SoakSite& site : sites) {
    total_scans += site.trace.scans.size();
    max_devices = std::max(max_devices, site.trace.device_count);
  }
  serve::LocationServerConfig server_config;
  server_config.service = config.service;
  server_config.max_sites = std::max<std::size_t>(1, sites.size());
  // The "session table never fills" invariant below demands a table
  // that cannot fill: one open-addressed table refuses a device only
  // when every cell is taken, so any capacity of at least max_devices
  // holds. The 4x headroom keeps linear probes short.
  server_config.sessions_per_site =
      std::max<std::size_t>(256, 4 * std::size_t{max_devices});
  serve::LocationServer server(server_config);

  metrics::Counter& service_scans = metrics::counter("service.scans");
  metrics::Counter& service_rejected =
      metrics::counter("service.rejected_samples");
  metrics::Counter& service_degraded =
      metrics::counter("service.degraded_fixes");
  const std::uint64_t service_scans_before = service_scans.value();
  const std::uint64_t service_rejected_before = service_rejected.value();
  const std::uint64_t service_degraded_before = service_degraded.value();
  const std::size_t pool_errors_before = pool.uncaught_task_errors();

  std::vector<serve::SiteId> site_ids;
  std::vector<std::uint64_t> shard_scans_before;
  for (const SoakSite& site : sites) {
    site_ids.push_back(server.add_site(site.trace.scenario,
                                       make_site_locator(site.database)));
    shard_scans_before.push_back(server.stats(site_ids.back()).scans);
  }

  // --- Replay with swap waves republishing under load -------------
  std::vector<std::vector<std::vector<std::size_t>>> by_device(sites.size());
  std::vector<std::pair<std::size_t, std::uint32_t>> work;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    by_device[s] = sites[s].trace.scans_by_device();
    for (std::uint32_t d = 0; d < by_device[s].size(); ++d) {
      work.emplace_back(s, d);
    }
  }
  std::vector<DeviceSlot> slots(work.size());

  const std::size_t swap_every =
      config.swap_every_scans > 0
          ? config.swap_every_scans
          : std::max<std::size_t>(1, total_scans / 16);
  const std::uint64_t planned_waves =
      static_cast<std::uint64_t>(total_scans / swap_every);

  std::atomic<std::size_t> progress{0};
  std::atomic<std::uint64_t> waves_claimed{0};
  std::atomic<std::uint64_t> waves{0};
  std::atomic<std::uint64_t> waves_under_load{0};

  // Swap waves are worker-driven: the replay worker whose scan pushes
  // fleet progress across a multiple of `swap_every` claims the wave
  // and republishes every site inline, while the rest of the fleet
  // keeps scanning straight through the swap. That makes the wave
  // count an exact function of progress (no scheduler luck, even on a
  // single-CPU host) and still lands every wave under live traffic.
  const auto drive_swap_waves = [&](std::size_t scans_done) {
    std::uint64_t claimed = waves_claimed.load(std::memory_order_relaxed);
    while (claimed < planned_waves &&
           static_cast<std::uint64_t>(scans_done) >=
               (claimed + 1) * swap_every) {
      if (waves_claimed.compare_exchange_weak(claimed, claimed + 1,
                                              std::memory_order_relaxed)) {
        for (std::size_t s = 0; s < sites.size(); ++s) {
          server.swap_site(site_ids[s], make_site_locator(sites[s].database));
        }
        waves.fetch_add(1, std::memory_order_relaxed);
        if (progress.load(std::memory_order_relaxed) < total_scans) {
          waves_under_load.fetch_add(1, std::memory_order_relaxed);
        }
        claimed = waves_claimed.load(std::memory_order_relaxed);
      }
    }
  };

  const Clock::time_point start = Clock::now();
  concurrency::parallel_for(pool, 0, work.size(), [&](std::size_t w) {
    const auto [site, device] = work[w];
    const ScanTrace& trace = sites[site].trace;
    DeviceSlot& slot = slots[w];
    const serve::DeviceId id = device_id(site, device);
    slot.errors_ft.reserve(by_device[site][device].size());
    slot.on_scan_s.reserve(by_device[site][device].size());
    for (std::size_t idx : by_device[site][device]) {
      const TraceScan& ts = trace.scans[idx];
      const Clock::time_point scan_start = Clock::now();
      const core::ServiceFix fix =
          server.on_scan(site_ids[site], id, ts.scan);
      slot.on_scan_s.push_back(seconds_since(scan_start));
      slot.fix_digest = fold_fix(slot.fix_digest, fix);
      const std::size_t done =
          progress.fetch_add(1, std::memory_order_relaxed) + 1;
      drive_swap_waves(done);
      if (!fix.valid) {
        ++slot.invalid;
      } else if (fix.degraded()) {
        ++slot.degraded;
      } else {
        ++slot.valid;
        slot.errors_ft.push_back(geom::distance(fix.position, ts.truth));
      }
    }
  });
  result.wall_s = seconds_since(start);
  result.swap_waves = waves.load();
  result.swap_waves_under_load = waves_under_load.load();

  // --- Assemble the deterministic reports -------------------------
  RunReport& report = result.report;
  report.scenario = std::move(name);
  report.scans_replayed = total_scans;
  result.site_reports.resize(sites.size());
  std::vector<double> latencies;
  latencies.reserve(total_scans);
  result.device_fix_digests.reserve(work.size());
  for (std::size_t w = 0; w < work.size(); ++w) {
    const DeviceSlot& slot = slots[w];
    result.device_fix_digests.push_back(slot.fix_digest);
    RunReport& site_report = result.site_reports[work[w].first];
    site_report.valid_fixes += slot.valid;
    site_report.degraded_fixes += slot.degraded;
    site_report.invalid_fixes += slot.invalid;
    site_report.errors_ft.insert(site_report.errors_ft.end(),
                                 slot.errors_ft.begin(),
                                 slot.errors_ft.end());
    latencies.insert(latencies.end(), slot.on_scan_s.begin(),
                     slot.on_scan_s.end());
  }
  for (std::size_t s = 0; s < sites.size(); ++s) {
    const ScanTrace& trace = sites[s].trace;
    RunReport& site_report = result.site_reports[s];
    site_report.scenario = trace.scenario;
    site_report.device_count = trace.device_count;
    site_report.scans_replayed = trace.scans.size();
    // Rejected samples are deterministic properties of the trace (the
    // session drops the non-finite ones and every sample of an over-cap
    // scan); the metric cross-check below confirms the live counters
    // agree.
    for (const TraceScan& ts : trace.scans) {
      site_report.rejected_samples += rejected_samples(ts.scan);
    }
    std::sort(site_report.errors_ft.begin(), site_report.errors_ft.end());
    report.device_count += site_report.device_count;
    report.valid_fixes += site_report.valid_fixes;
    report.degraded_fixes += site_report.degraded_fixes;
    report.invalid_fixes += site_report.invalid_fixes;
    report.rejected_samples += site_report.rejected_samples;
    report.errors_ft.insert(report.errors_ft.end(),
                            site_report.errors_ft.begin(),
                            site_report.errors_ft.end());
  }
  std::sort(report.errors_ft.begin(), report.errors_ft.end());

  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    double sum = 0.0;
    for (double v : latencies) sum += v;
    result.mean_on_scan_s = sum / static_cast<double>(latencies.size());
    result.p99_on_scan_s =
        latencies[std::min(latencies.size() - 1,
                           static_cast<std::size_t>(std::ceil(
                               0.99 * static_cast<double>(latencies.size()))) -
                               1)];
  }

  // --- Invariants --------------------------------------------------
  auto check = [&result](bool ok, std::string message) {
    if (!ok) result.violations.push_back(std::move(message));
  };

  const std::uint64_t fixes_total =
      report.valid_fixes + report.degraded_fixes + report.invalid_fixes;
  check(fixes_total == report.scans_replayed,
        format_violation("fix partition must sum to scan count",
                         report.scans_replayed, fixes_total));
  check(service_scans.value() - service_scans_before ==
            report.scans_replayed,
        format_violation("every scan must reach a session",
                         report.scans_replayed,
                         service_scans.value() - service_scans_before));
  check(service_rejected.value() - service_rejected_before ==
            report.rejected_samples,
        format_violation("every non-finite or over-cap sample must be "
                         "rejected",
                         report.rejected_samples,
                         service_rejected.value() - service_rejected_before));
  check(service_degraded.value() - service_degraded_before ==
            report.degraded_fixes,
        format_violation("metric service.degraded_fixes delta",
                         report.degraded_fixes,
                         service_degraded.value() - service_degraded_before));
  check(result.swap_waves == planned_waves,
        format_violation("every planned swap wave must run",
                         planned_waves, result.swap_waves));
  check(pool.uncaught_task_errors() == pool_errors_before,
        format_violation("uncaught pool errors during soak", 0,
                         pool.uncaught_task_errors() - pool_errors_before));

  for (std::size_t s = 0; s < sites.size(); ++s) {
    server.reclaim(site_ids[s]);
    const serve::SiteStats stats = server.stats(site_ids[s]);
    result.max_generation = std::max(result.max_generation, stats.generation);
    const std::size_t scanning_devices = static_cast<std::size_t>(
        std::count_if(by_device[s].begin(), by_device[s].end(),
                      [](const auto& scans) { return !scans.empty(); }));
    const std::string prefix = "site " + std::to_string(s) + " ";
    check(stats.scans - shard_scans_before[s] ==
              result.site_reports[s].scans_replayed,
          format_violation(prefix + "shard scan counter",
                           result.site_reports[s].scans_replayed,
                           stats.scans - shard_scans_before[s]));
    check(stats.generation == planned_waves + 1,
          format_violation(prefix + "snapshot generation", planned_waves + 1,
                           stats.generation));
    check(stats.sessions == scanning_devices,
          format_violation(prefix + "one session per device",
                           scanning_devices, stats.sessions));
    check(stats.retired_snapshots == 0,
          format_violation(prefix + "all retired snapshots reclaimed", 0,
                           stats.retired_snapshots));
    check(stats.reader_stalls == 0,
          format_violation(prefix + "readers never stall across two epochs",
                           0, stats.reader_stalls));
    check(stats.sessions_rejected == 0,
          format_violation(prefix + "session table never fills", 0,
                           stats.sessions_rejected));
    check(stats.errors == 0,
          format_violation(prefix + "no scan unwinds", 0, stats.errors));
  }

  if (config.max_p99_on_scan_s > 0.0 &&
      result.p99_on_scan_s > config.max_p99_on_scan_s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "p99 on_scan latency %.4fs exceeds bound %.4fs",
                  result.p99_on_scan_s, config.max_p99_on_scan_s);
    result.violations.push_back(buf);
  }

  return result;
}

SoakResult run_server_soak(const ServerSoakConfig& config) {
  // --- Synthesize the multi-site workload -------------------------
  std::vector<std::unique_ptr<Scenario>> scenarios;
  std::vector<ScanTrace> traces;
  scenarios.reserve(config.sites);
  traces.reserve(config.sites);
  for (std::size_t s = 0; s < config.sites; ++s) {
    const std::uint64_t site_seed = config.seed + 1000 * (s + 1);
    ScenarioSpec spec;
    if (s < config.campus_sites) {
      spec = ScenarioSpec::campus_fleet(config.devices_per_site,
                                        config.scans_per_device, site_seed);
      spec.train_scans = config.campus_train_scans;
    } else {
      spec = ScenarioSpec::fleet(config.devices_per_site,
                                 config.scans_per_device, site_seed);
    }
    spec.name = "site-" + std::to_string(s) + "-" + spec.name;
    if (config.fault_schedule) add_fault_schedule(spec);
    scenarios.push_back(std::make_unique<Scenario>(std::move(spec)));
    traces.push_back(scenarios.back()->record_trace());
  }

  std::string name = "server-soak-" + std::to_string(config.sites) + "x" +
                     std::to_string(config.devices_per_site) + "x" +
                     std::to_string(config.scans_per_device) + "-seed" +
                     std::to_string(config.seed);
  if (config.campus_sites > 0) {
    name +=
        "-campus" + std::to_string(std::min(config.campus_sites, config.sites));
  }
  std::vector<SoakSite> sites;
  sites.reserve(config.sites);
  for (std::size_t s = 0; s < config.sites; ++s) {
    sites.push_back({traces[s], scenarios[s]->database()});
  }
  SoakResult result = run_soak(sites, std::move(name), config);

  // --- Per-tick campus fleet frames (optional) ---------------------
  if (!config.frames_dir.empty() && config.campus_sites > 0 &&
      !scenarios.empty()) {
    std::filesystem::create_directories(config.frames_dir);
    const FleetFrameBuilder frames(*scenarios[0]);
    const floorplan::FleetCompositor compositor;
    const std::size_t every = std::max<std::size_t>(1, config.frame_every_ticks);
    const std::size_t ticks = frames.tick_count(traces[0]);
    for (std::size_t tick = 0; tick < ticks; tick += every) {
      const image::Raster frame =
          compositor.render(frames.frame(traces[0], tick));
      char file[32];
      std::snprintf(file, sizeof(file), "frame-%04zu.bmp", tick);
      image::write_bmp(std::filesystem::path(config.frames_dir) / file,
                       frame);
      ++result.frames_written;
    }
  }
  return result;
}

}  // namespace loctk::testkit

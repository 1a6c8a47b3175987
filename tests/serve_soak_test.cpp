// Server-level soak: the load generator in testkit/server_soak.hpp
// driven at test scale. The heavyweight gates live here under the
// `soak` ctest label (CI's nightly leg runs the 10k-device version via
// `soak_fleet --server`):
//
//  * every built-in invariant holds (scan accounting, swap waves,
//    reclamation, session counts, zero reader stalls);
//  * the combined RunReport is byte-identical across thread counts —
//    concurrency and hot swaps must not leak into the answers;
//  * swaps genuinely landed while traffic was in flight.

#include "testkit/server_soak.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/location_service.hpp"
#include "testkit/scenario.hpp"

namespace loctk::testkit {
namespace {

ServerSoakConfig small_config() {
  ServerSoakConfig config;
  config.sites = 3;
  config.devices_per_site = 6;
  config.scans_per_device = 24;
  config.seed = 7;
  // 3*6*24 = 432 scheduled scans minus 3 drop-scan faults (device 3 of
  // each site) = 429 replayed; a wave every 32 → 13 planned waves.
  config.swap_every_scans = 32;
  return config;
}

TEST(ServerSoak, InvariantsHoldAtSmallScale) {
  concurrency::ThreadPool pool(4);
  ServerSoakConfig config = small_config();
  config.pool = &pool;
  const SoakResult result = run_server_soak(config);
  for (const std::string& v : result.violations) {
    ADD_FAILURE() << "invariant violated: " << v;
  }
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.report.scans_replayed, 429u);
  EXPECT_EQ(result.site_reports.size(), config.sites);
  EXPECT_EQ(result.swap_waves, 13u);
  EXPECT_EQ(result.max_generation, 14u);  // initial publish + 13 waves
  EXPECT_GE(result.swap_waves_under_load, 1u);
  EXPECT_GT(result.report.valid_fixes, 0u);
}

TEST(ServerSoak, ReportIsByteDeterministicAcrossThreadCounts) {
  ServerSoakConfig config = small_config();

  concurrency::ThreadPool serial(1);
  config.pool = &serial;
  const SoakResult one = run_server_soak(config);
  ASSERT_TRUE(one.ok());

  concurrency::ThreadPool wide(8);
  config.pool = &wide;
  const SoakResult eight = run_server_soak(config);
  for (const std::string& v : eight.violations) {
    ADD_FAILURE() << "invariant violated: " << v;
  }
  ASSERT_TRUE(eight.ok());

  EXPECT_EQ(one.report, eight.report);
  EXPECT_EQ(one.report.to_json(), eight.report.to_json());
  ASSERT_EQ(one.site_reports.size(), eight.site_reports.size());
  for (std::size_t s = 0; s < one.site_reports.size(); ++s) {
    EXPECT_EQ(one.site_reports[s].to_json(), eight.site_reports[s].to_json())
        << "site " << s;
  }
  // Identical answers even though the two runs performed the same
  // number of swap waves at entirely different moments.
  EXPECT_EQ(one.swap_waves, eight.swap_waves);
}

TEST(ServerSoak, SwapsLandUnderLoad) {
  concurrency::ThreadPool pool(4);
  ServerSoakConfig config = small_config();
  config.pool = &pool;
  // Swap aggressively so many waves land while replay traffic runs.
  config.swap_every_scans = 8;
  const SoakResult result = run_server_soak(config);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.swap_waves, 53u);  // 429 / 8
  EXPECT_GE(result.swap_waves_under_load, 1u);
}

TEST(ServerSoak, CampusSitesMixIntoTheFleetAndStayDeterministic) {
  // One 1020-AP campus site next to two single-floor sites: synthesis
  // is the only site-aware step, so every invariant (scan accounting,
  // swap waves, reclamation, sessions, reader stalls) must hold
  // unchanged, and the report must stay byte-deterministic across
  // thread counts with the big-universe snapshots in the swap mix.
  ServerSoakConfig config = small_config();
  config.campus_sites = 1;
  config.scans_per_device = 12;  // campus synthesis carries the cost
  config.swap_every_scans = 32;

  concurrency::ThreadPool serial(1);
  config.pool = &serial;
  const SoakResult one = run_server_soak(config);
  for (const std::string& v : one.violations) {
    ADD_FAILURE() << "invariant violated: " << v;
  }
  ASSERT_TRUE(one.ok());
  EXPECT_NE(one.report.scenario.find("campus1"), std::string::npos);
  EXPECT_NE(one.site_reports[0].scenario.find("campus"), std::string::npos);
  EXPECT_GT(one.report.valid_fixes, 0u);
  EXPECT_GT(one.site_reports[0].valid_fixes, 0u);

  concurrency::ThreadPool wide(8);
  config.pool = &wide;
  const SoakResult eight = run_server_soak(config);
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(one.report, eight.report);
  EXPECT_EQ(one.report.to_json(), eight.report.to_json());
}

TEST(ServerSoak, FaultScheduleRejectsSamplesDeterministically) {
  ServerSoakConfig config = small_config();
  config.fault_schedule = true;
  const SoakResult with_faults = run_server_soak(config);
  ASSERT_TRUE(with_faults.ok());
  EXPECT_GT(with_faults.report.rejected_samples, 0u);

  config.fault_schedule = false;
  const SoakResult clean = run_server_soak(config);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.report.rejected_samples, 0u);
}

// A few devices send two over-cap scans mid-stream (docs/ROBUSTNESS.md):
// one with kMaxScanSamples + 1 samples and one carrying a BSSID of
// kMaxBssidBytes + 1 bytes. No scan may unwind (the soak's invariants
// check serve.shard.<site>.errors), every sample of those scans counts
// in service.rejected_samples beside the standing schedule's
// non-finite ones, and every other device's fix stream equals a run
// without the over-cap scans.
TEST(ServerSoak, OverCapScansAreRejectedWithoutDisturbingOtherDevices) {
  ScenarioSpec spec = ScenarioSpec::fleet(8, 24, 4242);
  spec.name = "over-cap";
  add_fault_schedule(spec);
  const Scenario scenario(std::move(spec));
  const ScanTrace clean = scenario.record_trace();

  // Devices 1, 4 and 6 each get both scans after their 10th scan,
  // stamped between it and their 11th.
  const std::vector<std::uint32_t> over_cap_devices = {1, 4, 6};
  ScanTrace over_cap = clean;
  std::uint64_t over_cap_samples = 0;
  for (const std::uint32_t device : over_cap_devices) {
    const std::vector<std::size_t> mine = over_cap.scans_by_device()[device];
    ASSERT_GT(mine.size(), 11u);
    const TraceScan at = over_cap.scans[mine[10]];
    const double gap_s =
        over_cap.scans[mine[11]].scan.timestamp_s - at.scan.timestamp_s;
    TraceScan crowded = at;
    crowded.scan.timestamp_s += gap_s / 3.0;
    for (int k = 0; crowded.scan.samples.size() <=
                    core::LocationService::kMaxScanSamples;
         ++k) {
      crowded.scan.samples.push_back(
          {"crowd:" + std::to_string(k), -80.0, 6});
    }
    TraceScan long_bssid = at;
    long_bssid.scan.timestamp_s += 2.0 * gap_s / 3.0;
    ASSERT_FALSE(long_bssid.scan.samples.empty());
    long_bssid.scan.samples[0].bssid.assign(
        core::LocationService::kMaxBssidBytes + 1, 'b');
    over_cap_samples +=
        crowded.scan.samples.size() + long_bssid.scan.samples.size();
    const auto after = over_cap.scans.begin() +
                       static_cast<std::ptrdiff_t>(mine[10]) + 1;
    over_cap.scans.insert(after, {crowded, long_bssid});
  }
  ASSERT_EQ(over_cap.scans.size(), clean.scans.size() + 6);

  concurrency::ThreadPool pool(4);
  SoakConfig config;
  config.pool = &pool;
  config.swap_every_scans = 16;
  const SoakResult without =
      run_soak({{clean, scenario.database()}}, "over-cap-clean", config);
  const SoakResult with =
      run_soak({{over_cap, scenario.database()}}, "over-cap", config);
  for (const SoakResult* r : {&without, &with}) {
    for (const std::string& v : r->violations) {
      ADD_FAILURE() << "invariant violated: " << v;
    }
  }
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());

  EXPECT_GT(without.report.rejected_samples, 0u);
  EXPECT_EQ(with.report.rejected_samples,
            without.report.rejected_samples + over_cap_samples);
  EXPECT_EQ(with.report.scans_replayed, without.report.scans_replayed + 6);
  ASSERT_EQ(with.device_fix_digests.size(), without.device_fix_digests.size());
  for (std::uint32_t d = 0; d < with.device_fix_digests.size(); ++d) {
    const bool touched =
        std::find(over_cap_devices.begin(), over_cap_devices.end(), d) !=
        over_cap_devices.end();
    if (touched) {
      // Two more fixes in its stream, so the digest must move.
      EXPECT_NE(with.device_fix_digests[d], without.device_fix_digests[d])
          << "device " << d;
    } else {
      EXPECT_EQ(with.device_fix_digests[d], without.device_fix_digests[d])
          << "device " << d;
    }
  }
}

// docs/OBSERVABILITY.md is the metric inventory. CI's static
// metrics-inventory job checks the string literals under src/; this
// checks every name registered by the time a two-site soak ends,
// names built at run time included, with each site's
// `serve.shard.<name>.` written as the inventory's `serve.shard.<site>.`.
// The site names are those of the registered `serve.shard.<name>.scans`
// counters (every shard registers one), so shards of earlier tests in
// the same process are normalised too.
TEST(ServerSoak, EveryRegisteredMetricIsInTheInventory) {
  concurrency::ThreadPool pool(2);
  ServerSoakConfig config = small_config();
  config.sites = 2;
  config.pool = &pool;
  const SoakResult result = run_server_soak(config);
  ASSERT_TRUE(result.ok());

  std::ifstream in(std::string(LOCTK_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(in) << "cannot read docs/OBSERVABILITY.md";
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());

  const metrics::MetricsSnapshot snap =
      metrics::MetricsRegistry::global().snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) names.push_back(name);
  for (const auto& [name, value] : snap.gauges) names.push_back(name);
  for (const metrics::HistogramSnapshot& h : snap.histograms) {
    names.push_back(h.name);
  }
  const std::string shard = "serve.shard.";
  const std::string scans = ".scans";
  std::vector<std::string> prefixes;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with(shard) && name.ends_with(scans)) {
      prefixes.push_back(name.substr(0, name.size() - scans.size()) + ".");
    }
  }
  for (const RunReport& site : result.site_reports) {
    EXPECT_NE(std::find(prefixes.begin(), prefixes.end(),
                        shard + site.scenario + "."),
              prefixes.end())
        << site.scenario;
  }
  for (const std::string& name : names) {
    std::string listed = name;
    std::size_t matched = 0;  // the longest site prefix wins
    for (const std::string& prefix : prefixes) {
      if (name.starts_with(prefix) && prefix.size() > matched) {
        listed = shard + "<site>." + name.substr(prefix.size());
        matched = prefix.size();
      }
    }
    EXPECT_NE(doc.find("`" + listed + "`"), std::string::npos)
        << name << " is registered but `" << listed
        << "` is not in docs/OBSERVABILITY.md";
  }
}

}  // namespace
}  // namespace loctk::testkit

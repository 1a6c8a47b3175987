// Quick-tier tests for the soak harness on one site: invariants hold
// on a small fleet, the run report is deterministic across replays and
// thread counts and pinned by digest, and the fault/degraded
// accounting is exact.

#include "testkit/server_soak.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "survey_digest.hpp"
#include "testkit/scenario.hpp"

namespace loctk::testkit {
namespace {

using loctk::testing::fnv1a;
using loctk::testing::hex;

struct SmallFleet {
  explicit SmallFleet(ScenarioSpec spec = ScenarioSpec::fleet(6, 20,
                                                              /*seed=*/11))
      : scenario(std::move(spec)), trace(scenario.record_trace()) {}

  SoakResult soak(const SoakConfig& config = {}) const {
    return run_soak({{trace, scenario.database()}}, trace.scenario, config);
  }

  Scenario scenario;
  ScanTrace trace;
};

TEST(FleetSoak, SmallFleetPassesAllInvariants) {
  const SmallFleet f;
  const SoakResult result = f.soak();
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(result.ok());

  const RunReport& r = result.report;
  EXPECT_EQ(r.scans_replayed, f.trace.scans.size());
  EXPECT_EQ(r.device_count, 6u);
  EXPECT_EQ(r.valid_fixes + r.degraded_fixes + r.invalid_fixes,
            r.scans_replayed);
  // A clean trace rejects nothing and most scans fix (only the
  // min_scans warm-up per device cannot).
  EXPECT_EQ(r.rejected_samples, 0u);
  EXPECT_GT(r.valid_fix_fraction(), 0.8);
  EXPECT_EQ(r.errors_ft.size(), r.valid_fixes);
  EXPECT_TRUE(std::is_sorted(r.errors_ft.begin(), r.errors_ft.end()));
  EXPECT_GT(result.p99_on_scan_s, 0.0);
  // One site still sees the derived ~16 swap waves: 120 scans, a wave
  // every 120 / 16 = 7.
  EXPECT_EQ(result.swap_waves, 17u);
  EXPECT_EQ(result.max_generation, 18u);
}

TEST(FleetSoak, ReportIsIdenticalAcrossReplays) {
  const SmallFleet f;
  const SoakResult once = f.soak();
  const SoakResult twice = f.soak();
  EXPECT_EQ(once.report, twice.report);
}

TEST(FleetSoak, ReportIsThreadCountInvariant) {
  const SmallFleet f;
  concurrency::ThreadPool one(1);
  concurrency::ThreadPool many(4);
  SoakConfig serial;
  serial.pool = &one;
  SoakConfig parallel;
  parallel.pool = &many;
  const SoakResult a = f.soak(serial);
  const SoakResult b = f.soak(parallel);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(a.report, b.report);
}

TEST(FleetSoak, OneSiteReportIsTheSiteReport) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    ScenarioSpec spec = ScenarioSpec::fleet(5, 12, seed);
    add_fault_schedule(spec);
    const SoakResult result = SmallFleet(std::move(spec)).soak();
    EXPECT_TRUE(result.ok()) << "seed " << seed;
    ASSERT_EQ(result.site_reports.size(), 1u);
    EXPECT_EQ(result.report, result.site_reports[0]) << "seed " << seed;
  }
}

TEST(FleetSoak, CountsInjectedFaults) {
  ScenarioSpec spec = ScenarioSpec::fleet(4, 15, /*seed=*/23);
  spec.faults.push_back({.device = 0, .scan_index = 5,
                         .kind = FaultEvent::Kind::kNonFiniteRssi});
  spec.faults.push_back({.device = 2, .scan_index = 9,
                         .kind = FaultEvent::Kind::kNonFiniteRssi});
  spec.faults.push_back({.device = 3, .scan_index = 3,
                         .kind = FaultEvent::Kind::kDropScan});
  const SoakResult result = SmallFleet(std::move(spec)).soak();
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_EQ(result.report.scans_replayed, 4u * 15u - 1u);  // one dropped
  EXPECT_EQ(result.report.rejected_samples, 2u);  // one NaN sample each
}

TEST(FleetSoak, LatencyBoundViolationIsReported) {
  const SmallFleet f;
  SoakConfig config;
  config.max_p99_on_scan_s = 1e-12;  // impossible bound
  const SoakResult result = f.soak(config);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.violations.front().find("p99"), std::string::npos);
}

TEST(FleetSoak, ReportSerializationIsStable) {
  const SmallFleet f;
  const SoakResult result = f.soak();
  const std::string json = result.report.to_json();
  EXPECT_EQ(json, f.soak().report.to_json());
  EXPECT_NE(json.find("\"scans_replayed\""), std::string::npos);
  EXPECT_NE(json.find("\"errors_ft\""), std::string::npos);
  EXPECT_NE(result.report.to_text().find("run report"), std::string::npos);
}

// The report bytes, pinned: recorded from the per-device
// LocationService replay the soak ran before it went through a
// LocationServer, so a change to replay order, fix classification or
// the report's assembly moves them.
TEST(FleetSoak, SmallFleetReportDigestIsPinned) {
  EXPECT_EQ(hex(fnv1a(SmallFleet().soak().report.to_json())),
            hex(0xa08deaad52e9947eULL));
}

TEST(FleetSoak, FaultScheduleReportDigestIsPinned) {
  ScenarioSpec spec = ScenarioSpec::fleet(16, 20, /*seed=*/16);
  add_fault_schedule(spec);
  const SoakResult result = SmallFleet(std::move(spec)).soak();
  EXPECT_EQ(result.report.rejected_samples, 3u);
  EXPECT_EQ(hex(fnv1a(result.report.to_json())),
            hex(0x4fa990c907752772ULL));
}

TEST(RunReport, FractionsAndPercentiles) {
  RunReport r;
  EXPECT_EQ(r.valid_fix_fraction(), 0.0);
  EXPECT_EQ(r.degraded_fix_rate(), 0.0);
  EXPECT_EQ(r.p90_error_ft(), 0.0);

  r.scans_replayed = 10;
  r.valid_fixes = 6;
  r.degraded_fixes = 2;
  r.invalid_fixes = 2;
  r.errors_ft = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(r.valid_fix_fraction(), 0.8);
  EXPECT_DOUBLE_EQ(r.degraded_fix_rate(), 0.25);
  EXPECT_DOUBLE_EQ(r.mean_error_ft(), 3.5);
  EXPECT_DOUBLE_EQ(r.median_error_ft(), 3.0);
  EXPECT_DOUBLE_EQ(r.max_error_ft(), 6.0);
  EXPECT_DOUBLE_EQ(r.error_percentile(1.0), 6.0);
  EXPECT_DOUBLE_EQ(r.error_percentile(0.0), 1.0);
}

}  // namespace
}  // namespace loctk::testkit

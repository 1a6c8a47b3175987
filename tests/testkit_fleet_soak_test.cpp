// Fleet-scale soak (ctest label: soak): >= 64 concurrent simulated
// devices replayed through a one-site LocationServer on the default
// pool, with swap waves under load, the full invariant battery and the
// standing fault schedule mixed in. The scheduled CI job runs this
// suite under TSan — the devices' sessions share each published
// locator, so any unsynchronized state in the locate path surfaces
// here.

#include "testkit/server_soak.hpp"

#include <cstdio>

#include <gtest/gtest.h>

#include "testkit/scenario.hpp"

namespace loctk::testkit {
namespace {

constexpr std::size_t kFleetDevices = 64;
constexpr int kScansPerDevice = 40;

struct Fleet {
  Fleet()
      : scenario([] {
          ScenarioSpec spec =
              ScenarioSpec::fleet(kFleetDevices, kScansPerDevice, /*seed=*/64);
          add_fault_schedule(spec);
          return spec;
        }()),
        trace(scenario.record_trace()) {}

  SoakResult soak() const {
    SoakConfig config;
    // Generous bound: the scheduled job runs this under TSan on shared
    // CI machines. The quick-tier soak tests keep the tight default.
    config.max_p99_on_scan_s = 5.0;
    return run_soak({{trace, scenario.database()}}, trace.scenario, config);
  }

  Scenario scenario;
  ScanTrace trace;
};

TEST(FleetSoakFull, SixtyFourDevicesZeroInvariantViolations) {
  const Fleet fleet;
  ASSERT_GE(fleet.trace.device_count, 64u);

  const SoakResult result = fleet.soak();
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(result.ok());

  const RunReport& r = result.report;
  EXPECT_EQ(r.device_count, kFleetDevices);
  EXPECT_GT(r.rejected_samples, 0u);  // the NaN schedule really ran
  EXPECT_GT(r.valid_fix_fraction(), 0.8);
  EXPECT_GE(result.swap_waves_under_load, 1u);
  std::fputs(r.to_text().c_str(), stderr);
  std::fprintf(stderr, "  wall %.2fs  mean on_scan %.1fus  p99 %.1fus\n",
               result.wall_s, 1e6 * result.mean_on_scan_s,
               1e6 * result.p99_on_scan_s);
}

TEST(FleetSoakFull, ReportIdenticalAcrossConcurrentReplays) {
  const Fleet fleet;
  const SoakResult once = fleet.soak();
  const SoakResult twice = fleet.soak();
  EXPECT_TRUE(once.ok());
  EXPECT_TRUE(twice.ok());
  EXPECT_EQ(once.report, twice.report);
  EXPECT_EQ(once.report.to_json(), twice.report.to_json());
}

}  // namespace
}  // namespace loctk::testkit

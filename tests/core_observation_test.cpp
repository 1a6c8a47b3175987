// Unit tests for working-phase observations.

#include "core/observation.hpp"

#include <gtest/gtest.h>

namespace loctk::core {
namespace {

std::vector<radio::ScanRecord> scripted_scans() {
  std::vector<radio::ScanRecord> scans(3);
  scans[0].timestamp_s = 0.0;
  scans[0].samples = {{"bb", -70.0, 6}, {"aa", -50.0, 1}};
  scans[1].timestamp_s = 1.0;
  scans[1].samples = {{"aa", -52.0, 1}};
  scans[2].timestamp_s = 2.0;
  scans[2].samples = {{"aa", -54.0, 1}, {"bb", -72.0, 6}};
  return scans;
}

TEST(Observation, FromScansAggregatesPerAp) {
  const Observation obs = Observation::from_scans(scripted_scans());
  EXPECT_EQ(obs.ap_count(), 2u);
  EXPECT_FALSE(obs.empty());

  const ObservedAp* aa = obs.find("aa");
  ASSERT_NE(aa, nullptr);
  EXPECT_DOUBLE_EQ(aa->mean_dbm, -52.0);
  EXPECT_EQ(aa->sample_count, 3u);
  ASSERT_EQ(aa->samples_dbm.size(), 3u);

  const ObservedAp* bb = obs.find("bb");
  ASSERT_NE(bb, nullptr);
  EXPECT_DOUBLE_EQ(bb->mean_dbm, -71.0);
  EXPECT_EQ(bb->sample_count, 2u);

  EXPECT_EQ(obs.find("cc"), nullptr);
}

TEST(Observation, ApsSortedByBssid) {
  const Observation obs = Observation::from_scans(scripted_scans());
  ASSERT_EQ(obs.aps().size(), 2u);
  EXPECT_EQ(obs.aps()[0].bssid, "aa");
  EXPECT_EQ(obs.aps()[1].bssid, "bb");
}

TEST(Observation, FromEntriesMatchesFromScans) {
  const auto scans = scripted_scans();
  const Observation from_scans = Observation::from_scans(scans);
  wiscan::WiScanFile file;
  wiscan::append_scans(file, scans);
  const Observation from_entries = Observation::from_entries(file);
  EXPECT_EQ(from_scans.aps().size(), from_entries.aps().size());
  for (std::size_t i = 0; i < from_scans.aps().size(); ++i) {
    EXPECT_EQ(from_scans.aps()[i].bssid, from_entries.aps()[i].bssid);
    EXPECT_DOUBLE_EQ(from_scans.aps()[i].mean_dbm,
                     from_entries.aps()[i].mean_dbm);
  }
}

TEST(Observation, MeanOfAndSignature) {
  const Observation obs = Observation::from_scans(scripted_scans());
  EXPECT_DOUBLE_EQ(*obs.mean_of("aa"), -52.0);
  EXPECT_FALSE(obs.mean_of("zz").has_value());

  const auto sig = obs.signature({"aa", "zz", "bb"}, -99.0);
  ASSERT_EQ(sig.size(), 3u);
  EXPECT_DOUBLE_EQ(sig[0], -52.0);
  EXPECT_DOUBLE_EQ(sig[1], -99.0);
  EXPECT_DOUBLE_EQ(sig[2], -71.0);
}

TEST(Observation, EmptyCases) {
  const Observation obs = Observation::from_scans({});
  EXPECT_TRUE(obs.empty());
  EXPECT_EQ(obs.ap_count(), 0u);
  EXPECT_TRUE(obs.signature({}, -100.0).empty());

  // Scans that heard nothing also produce an empty observation.
  std::vector<radio::ScanRecord> silent(5);
  EXPECT_TRUE(Observation::from_scans(silent).empty());
}

}  // namespace
}  // namespace loctk::core

// Unit tests for wi-scan collection loading (directory trees, .lar
// archives) and the simulated survey campaign.

#include "wiscan/collection.hpp"
#include "wiscan/survey.hpp"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "radio/environment.hpp"
#include "radio/propagation.hpp"

namespace loctk::wiscan {
namespace {

namespace fs = std::filesystem;

class CollectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest may run the cases concurrently.
    dir_ = fs::temp_directory_path() /
           (std::string("loctk_collection_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "floor1");
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_file(const fs::path& rel, const std::string& content) {
    std::ofstream(dir_ / rel) << content;
  }

  fs::path dir_;
};

TEST_F(CollectionTest, LoadsDirectoryRecursively) {
  write_file("kitchen.wiscan", "bssid=aa rssi=-50\n");
  write_file("floor1/hall.wiscan", "bssid=bb rssi=-60\n");
  write_file("notes.txt", "ignored");

  const Collection c = load_collection(dir_);
  ASSERT_EQ(c.files.size(), 2u);
  // Sorted by location for determinism.
  EXPECT_EQ(c.files[0].location, "hall");
  EXPECT_EQ(c.files[1].location, "kitchen");
  EXPECT_EQ(c.total_entries(), 2u);
  EXPECT_NE(c.find("kitchen"), nullptr);
  EXPECT_EQ(c.find("attic"), nullptr);
}

TEST_F(CollectionTest, HeaderLocationBeatsFilename) {
  write_file("f1.wiscan", "# location: lab\nbssid=aa rssi=-50\n");
  const Collection c = load_collection(dir_);
  ASSERT_EQ(c.files.size(), 1u);
  EXPECT_EQ(c.files[0].location, "lab");
}

TEST_F(CollectionTest, LoadsLarArchive) {
  Archive ar;
  ar.add("a.wiscan", "bssid=aa rssi=-50\n");
  ar.add("sub/b.wiscan", "bssid=bb rssi=-55\n");
  ar.add("readme.md", "not a scan");
  const auto path = dir_ / "survey.lar";
  ar.write(path);

  const Collection c = load_collection(path);
  ASSERT_EQ(c.files.size(), 2u);
  EXPECT_EQ(c.files[0].location, "a");
  EXPECT_EQ(c.files[1].location, "b");
}

TEST_F(CollectionTest, RejectsOtherSources) {
  write_file("data.bin", "junk");
  EXPECT_THROW(load_collection(dir_ / "data.bin"), FormatError);
  EXPECT_THROW(load_collection(dir_ / "missing"), FormatError);
}

class SurveyTest : public ::testing::Test {
 protected:
  SurveyTest()
      : env_(radio::make_paper_house()), prop_(env_),
        scanner_(prop_, radio::ChannelConfig{}, 77) {
    map_.add("corner", {5.0, 5.0});
    map_.add("center", {25.0, 20.0});
  }

  radio::Environment env_;
  radio::Propagation prop_;
  radio::Scanner scanner_;
  LocationMap map_;
};

TEST_F(SurveyTest, RunProducesOneFilePerLocation) {
  SurveyConfig cfg;
  cfg.scans_per_location = 10;
  SurveyCampaign campaign(scanner_, cfg);
  const Collection c = campaign.run(map_);
  ASSERT_EQ(c.files.size(), 2u);
  EXPECT_EQ(c.files[0].location, "corner");
  EXPECT_EQ(c.files[1].location, "center");
  for (const WiScanFile& f : c.files) {
    EXPECT_EQ(f.scan_count(), 10u);
    EXPECT_GE(f.bssids().size(), 2u);  // several APs audible
    for (std::size_t i = 0; i < f.size(); ++i) {
      const WiScanEntry e = f.entry(i);
      EXPECT_EQ(e.ssid, "loctk");
      EXPECT_LT(e.rssi_dbm, 0.0);
    }
  }
}

TEST_F(SurveyTest, RunToDirectoryWritesParseableFiles) {
  const auto out = fs::temp_directory_path() / "loctk_survey_out";
  fs::remove_all(out);
  SurveyConfig cfg;
  cfg.scans_per_location = 5;
  SurveyCampaign campaign(scanner_, cfg);
  const Collection written = campaign.run_to_directory(map_, out);

  const Collection back = load_collection(out);
  ASSERT_EQ(back.files.size(), written.files.size());
  // File contents round-trip through the text format.
  for (const WiScanFile& f : written.files) {
    const WiScanFile* loaded = back.find(f.location);
    ASSERT_NE(loaded, nullptr) << f.location;
    EXPECT_EQ(loaded->size(), f.size());
  }
  fs::remove_all(out);
}

TEST_F(SurveyTest, RunToArchiveMatchesDirectoryPath) {
  SurveyConfig cfg;
  cfg.scans_per_location = 5;
  SurveyCampaign campaign(scanner_, cfg);
  const Archive ar = campaign.run_to_archive(map_);
  EXPECT_EQ(ar.size(), 2u);
  const Collection c = load_collection(ar);
  ASSERT_EQ(c.files.size(), 2u);
  EXPECT_EQ(c.files[1].location, "corner");  // sorted: center, corner
}

TEST_F(SurveyTest, MultiHeadingSurveySplitsDwell) {
  radio::ChannelConfig cc;
  cc.body_loss_db = 6.0;
  cc.shadowing_sigma_db = 0.0;
  cc.fast_fading_sigma_db = 0.0;
  cc.quantize_dbm = false;
  cc.sensitivity_dbm = -150.0;
  cc.dropout_softness_db = 0.0;
  radio::Scanner scanner(prop_, cc, 88);

  SurveyConfig cfg;
  cfg.scans_per_location = 10;  // 10 over 4 headings: 3,3,2,2
  cfg.headings = {0.0, 1.5707963, 3.1415926, 4.7123889};
  SurveyCampaign campaign(scanner, cfg);
  LocationMap one;
  one.add("spot", {25.0, 20.0});
  const Collection c = campaign.run(one);
  ASSERT_EQ(c.files.size(), 1u);
  EXPECT_EQ(c.files[0].scan_count(), 10u);

  // With a noiseless channel and 4 symmetric headings, the per-AP
  // mean equals the orientation-averaged value: strictly between the
  // facing and worst-case readings.
  const auto& env = env_;
  const std::string bssid = env.access_points()[0].bssid;
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < c.files[0].size(); ++i) {
    const WiScanEntry e = c.files[0].entry(i);
    if (e.bssid == bssid) {
      sum += e.rssi_dbm;
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  const double mean = sum / n;
  const double unshadowed = prop_.mean_rssi_dbm(0, {25.0, 20.0});
  EXPECT_LT(mean, unshadowed);             // some body loss applied
  EXPECT_GT(mean, unshadowed - 6.0);       // but never the full loss
}

TEST_F(SurveyTest, SessionResetControlsIndependence) {
  // With reset_session_per_location=false the channel state carries
  // across locations; either way we get the same file shapes.
  SurveyConfig cfg;
  cfg.scans_per_location = 4;
  cfg.reset_session_per_location = false;
  SurveyCampaign campaign(scanner_, cfg);
  const Collection c = campaign.run(map_);
  EXPECT_EQ(c.files.size(), 2u);
  EXPECT_EQ(c.files[0].scan_count(), 4u);
}

}  // namespace
}  // namespace loctk::wiscan

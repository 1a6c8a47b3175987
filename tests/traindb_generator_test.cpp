// Unit tests for the Training Database Generator (paper §4.3):
// aggregation correctness, mismatch reporting, and serial/parallel
// equivalence.

#include "traindb/generator.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace loctk::traindb {
namespace {

wiscan::WiScanFile scripted_file(const std::string& location,
                                 double shift_db = 0.0) {
  // Two APs: "aa" heard every pass with values -50, -52, -54;
  // "bb" heard twice with -70, -72; "cc" heard once (to be dropped).
  // Every reading is lowered by `shift_db`.
  wiscan::WiScanFile f;
  f.location = location;
  for (const wiscan::WiScanEntry& e : {
           wiscan::WiScanEntry{0.0, "aa", "net", 1, -50.0},
           wiscan::WiScanEntry{0.0, "bb", "net", 6, -70.0},
           wiscan::WiScanEntry{1.0, "aa", "net", 1, -52.0},
           wiscan::WiScanEntry{1.0, "bb", "net", 6, -72.0},
           wiscan::WiScanEntry{2.0, "aa", "net", 1, -54.0},
           wiscan::WiScanEntry{2.0, "cc", "net", 11, -90.0},
       }) {
    f.add({e.timestamp_s, e.bssid, e.ssid, e.channel, e.rssi_dbm - shift_db});
  }
  return f;
}

TEST(BuildTrainingPoint, ComputesPaperStatistics) {
  GeneratorConfig cfg;
  cfg.min_samples_per_ap = 2;
  std::size_t dropped = 0;
  const TrainingPoint p =
      build_training_point(scripted_file("k"), {10.0, 20.0}, cfg, &dropped);

  EXPECT_EQ(p.location, "k");
  EXPECT_EQ(p.position, geom::Vec2(10.0, 20.0));
  ASSERT_EQ(p.per_ap.size(), 2u);  // "cc" dropped
  EXPECT_EQ(dropped, 1u);

  const ApStatistics* aa = p.find("aa");
  ASSERT_NE(aa, nullptr);
  EXPECT_DOUBLE_EQ(aa->mean_dbm, -52.0);
  // Population stddev of {-50,-52,-54} = sqrt(8/3).
  EXPECT_NEAR(aa->stddev_db, std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_EQ(aa->sample_count, 3u);
  EXPECT_EQ(aa->scan_count, 3u);
  EXPECT_DOUBLE_EQ(aa->min_dbm, -54.0);
  EXPECT_DOUBLE_EQ(aa->max_dbm, -50.0);
  EXPECT_TRUE(aa->samples_centi_dbm.empty());  // keep_samples off

  const ApStatistics* bb = p.find("bb");
  ASSERT_NE(bb, nullptr);
  EXPECT_DOUBLE_EQ(bb->mean_dbm, -71.0);
  EXPECT_EQ(bb->sample_count, 2u);
  EXPECT_EQ(bb->scan_count, 3u);  // visibility 2/3
  EXPECT_NEAR(bb->visibility(), 2.0 / 3.0, 1e-12);
}

TEST(BuildTrainingPoint, KeepSamplesStoresCentiDbm) {
  GeneratorConfig cfg;
  cfg.keep_samples = true;
  cfg.min_samples_per_ap = 1;
  const TrainingPoint p =
      build_training_point(scripted_file("k"), {0, 0}, cfg);
  const ApStatistics* aa = p.find("aa");
  ASSERT_NE(aa, nullptr);
  ASSERT_EQ(aa->samples_centi_dbm.size(), 3u);
  EXPECT_EQ(aa->samples_centi_dbm[0], -5000);
  EXPECT_EQ(aa->samples_centi_dbm[2], -5400);
}

TEST(Generate, BuildsFromCollectionAndMap) {
  wiscan::Collection col;
  col.files = {scripted_file("a"), scripted_file("b")};
  wiscan::LocationMap map;
  map.add("a", {0.0, 0.0});
  map.add("b", {10.0, 0.0});

  GeneratorConfig cfg;
  cfg.site_name = "test-site";
  cfg.min_samples_per_ap = 2;  // keep "bb" (2 samples), drop "cc" (1)
  GeneratorReport report;
  const TrainingDatabase db = generate_database(col, map, cfg, &report);

  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.site_name(), "test-site");
  EXPECT_EQ(report.points_built, 2u);
  EXPECT_TRUE(report.unmapped_locations.empty());
  EXPECT_TRUE(report.unsurveyed_locations.empty());
  EXPECT_EQ(db.find("a")->position, geom::Vec2(0.0, 0.0));
  EXPECT_EQ(db.bssid_universe().size(), 2u);  // cc dropped everywhere
}

TEST(Generate, ReportsMismatches) {
  wiscan::Collection col;
  col.files = {scripted_file("surveyed-only"), scripted_file("both")};
  wiscan::LocationMap map;
  map.add("both", {1.0, 1.0});
  map.add("mapped-only", {2.0, 2.0});

  GeneratorReport report;
  const TrainingDatabase db = generate_database(col, map, {}, &report);
  EXPECT_EQ(db.size(), 1u);
  ASSERT_EQ(report.unmapped_locations.size(), 1u);
  EXPECT_EQ(report.unmapped_locations[0], "surveyed-only");
  ASSERT_EQ(report.unsurveyed_locations.size(), 1u);
  EXPECT_EQ(report.unsurveyed_locations[0], "mapped-only");
}

TEST(Generate, ParallelMatchesSerialExactly) {
  wiscan::Collection col;
  wiscan::LocationMap map;
  for (int i = 0; i < 24; ++i) {
    const std::string name = "p" + std::to_string(i);
    // Vary the data a little per point.
    col.files.push_back(scripted_file(name, i * 0.5));
    map.add(name, {static_cast<double>(i), 0.0});
  }

  GeneratorConfig cfg;
  cfg.keep_samples = true;
  cfg.min_samples_per_ap = 1;
  GeneratorReport serial_report, parallel_report;
  const TrainingDatabase serial =
      generate_database(col, map, cfg, &serial_report);

  concurrency::ThreadPool pool(4);
  const TrainingDatabase parallel = generate_database_parallel(
      col, map, pool, cfg, &parallel_report);

  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_report.points_built, parallel_report.points_built);
  EXPECT_EQ(serial_report.dropped_pairs, parallel_report.dropped_pairs);
}

TEST(Generate, FromPathEndToEnd) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "loctk_gen_path";
  fs::remove_all(dir);
  fs::create_directories(dir / "scans");

  wiscan::write_wiscan(dir / "scans" / "a.wiscan", scripted_file("a"));
  wiscan::LocationMap map;
  map.add("a", {3.0, 4.0});
  map.write(dir / "house.locmap");

  const TrainingDatabase db =
      generate_database_from_path(dir / "scans", dir / "house.locmap");
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.find("a")->position, geom::Vec2(3.0, 4.0));

  // Archive flavor.
  wiscan::Archive ar;
  ar.add("a.wiscan", wiscan::encode_wiscan(scripted_file("a")));
  ar.write(dir / "scans.lar");
  const TrainingDatabase db2 =
      generate_database_from_path(dir / "scans.lar", dir / "house.locmap");
  EXPECT_EQ(db2.size(), 1u);
  fs::remove_all(dir);
}

TEST(Generate, EmptyInputs) {
  const TrainingDatabase db =
      generate_database(wiscan::Collection{}, wiscan::LocationMap{});
  EXPECT_TRUE(db.empty());
  EXPECT_TRUE(db.bssid_universe().empty());
}

}  // namespace
}  // namespace loctk::traindb

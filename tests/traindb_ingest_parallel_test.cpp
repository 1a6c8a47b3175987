// Randomized property tests for the parallel ingest pipeline: the
// parallel collection-load and generator paths must produce output
// byte-identical to the serial paths on shuffled multi-file corpora,
// and the direct-to-CompiledDatabase builds must match the two-step
// compile-after-load composition exactly.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/thread_pool.hpp"
#include "core/compiled_db.hpp"
#include "traindb/codec.hpp"
#include "traindb/generator.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/format.hpp"
#include "wiscan/location_map.hpp"
#include "wiscan/scan_buffer.hpp"

namespace loctk::traindb {
namespace {

namespace fs = std::filesystem;

// A synthetic survey: shuffled wi-scan files (some nested in
// subdirectories), a location map that covers most but not all of
// them, plus one mapped-but-unsurveyed location.
class IngestParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own (possibly concurrent) process,
    // so the corpus directory must be unique per test.
    dir_ = fs::temp_directory_path() /
           (std::string("loctk_ingest_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "scans" / "wing-b");
    build_corpus(/*seed=*/20260806u);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void build_corpus(unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> ap_count(2, 9);
    std::uniform_int_distribution<int> scan_count(4, 12);
    std::uniform_real_distribution<double> rssi(-90.0, -35.0);

    std::vector<std::string> locations;
    for (int i = 0; i < 24; ++i) {
      locations.push_back("room-" + std::to_string(i));
    }
    std::shuffle(locations.begin(), locations.end(), rng);

    std::string map_text = "# location-map v1\n";
    for (std::size_t i = 0; i < locations.size(); ++i) {
      const std::string& loc = locations[i];
      std::string text = "# wi-scan v1\n# location: " + loc + "\n";
      const int scans = scan_count(rng);
      const int aps = ap_count(rng);
      for (int t = 0; t < scans; ++t) {
        for (int a = 0; a < aps; ++a) {
          // Some <point, AP> pairs stay below min_samples_per_ap so
          // the generator's drop path runs too.
          if ((a + t + static_cast<int>(i)) % 7 == 0 && t > 1) continue;
          text += "time=" + std::to_string(t) + ".0 bssid=ap:" +
                  std::to_string(a % 13) + " ssid=net channel=" +
                  std::to_string(1 + a % 11) + " rssi=" +
                  std::to_string(rssi(rng)) + "\n";
        }
      }
      // A guaranteed-rare AP heard only twice: always below the
      // default min_samples_per_ap, so the drop path runs everywhere.
      text += "time=0.0 bssid=ap:rare rssi=-88.0\n"
              "time=1.0 bssid=ap:rare rssi=-87.5\n";
      // Scatter files across subdirectories; loading must not depend
      // on filesystem layout or enumeration order.
      const fs::path rel = i % 3 == 0 ? fs::path("scans") / (loc + ".wiscan")
                           : i % 3 == 1
                               ? fs::path("scans") / "wing-b" / (loc + ".wiscan")
                               : fs::path(loc + ".wiscan");
      std::ofstream(dir_ / rel) << text;
      // Leave two surveyed locations out of the map (unmapped), and
      // map one location nobody surveyed (unsurveyed).
      if (i >= 2) {
        map_text += loc + " " + std::to_string(10 * i) + ".0 " +
                    std::to_string(5 * i) + ".5\n";
      }
    }
    map_text += "phantom-lab 999.0 999.0\n";
    std::ofstream(dir_ / "site.locmap") << map_text;
    map_ = wiscan::LocationMap::read(dir_ / "site.locmap");
  }

  fs::path archive_path() {
    const fs::path p = dir_ / "survey.lar";
    if (!fs::exists(p)) {
      // Pack only the wi-scan corpus, not the map/archive themselves.
      auto ar = wiscan::Archive::pack_directory(dir_ / "scans");
      // Root-level files too, so the archive mirrors the full corpus.
      for (const auto& entry : fs::directory_iterator(dir_)) {
        if (entry.path().extension() == ".wiscan") {
          ar.add(entry.path().filename().string(),
                 wiscan::read_file_bytes(entry.path()));
        }
      }
      ar.write(p);
    }
    return p;
  }

  fs::path dir_;
  wiscan::LocationMap map_;
};

TEST_F(IngestParallelTest, ParallelDirectoryLoadIsIdenticalToSerial) {
  concurrency::ThreadPool pool(4);
  const wiscan::Collection serial = wiscan::load_collection(dir_);
  const wiscan::Collection parallel = wiscan::load_collection(dir_, &pool);
  EXPECT_EQ(serial.files, parallel.files);
}

TEST_F(IngestParallelTest, ParallelArchiveLoadIsIdenticalToSerial) {
  concurrency::ThreadPool pool(3);
  const fs::path lar = archive_path();
  const wiscan::Collection serial = wiscan::load_collection(lar);
  const wiscan::Collection parallel = wiscan::load_collection(lar, &pool);
  EXPECT_EQ(serial.files, parallel.files);
  // The archive mirrors the directory corpus entry for entry.
  EXPECT_EQ(serial.files, wiscan::load_collection(dir_).files);
}

TEST_F(IngestParallelTest, ParallelGeneratorBytesMatchSerial) {
  const wiscan::Collection collection = wiscan::load_collection(dir_);
  for (const bool keep_samples : {false, true}) {
    GeneratorConfig config;
    config.keep_samples = keep_samples;
    config.site_name = "prop-test";

    GeneratorReport serial_report;
    const TrainingDatabase serial =
        generate_database(collection, map_, config, &serial_report);

    concurrency::ThreadPool pool(4);
    GeneratorReport parallel_report;
    const TrainingDatabase parallel = generate_database_parallel(
        collection, map_, pool, config, &parallel_report);

    EXPECT_EQ(encode_database(serial), encode_database(parallel));
    EXPECT_EQ(serial_report.unmapped_locations,
              parallel_report.unmapped_locations);
    EXPECT_EQ(serial_report.unsurveyed_locations,
              parallel_report.unsurveyed_locations);
    EXPECT_EQ(serial_report.dropped_pairs, parallel_report.dropped_pairs);
    EXPECT_EQ(serial_report.points_built, parallel_report.points_built);
    // The corpus really exercises the report paths.
    EXPECT_EQ(serial_report.unmapped_locations.size(), 2u);
    EXPECT_EQ(serial_report.unsurveyed_locations.size(), 1u);
    EXPECT_GT(serial_report.dropped_pairs, 0u);
  }
}

TEST_F(IngestParallelTest, EndToEndFromPathBytesMatchSerial) {
  GeneratorConfig config;
  config.site_name = "e2e";
  const fs::path map_file = dir_ / "site.locmap";

  concurrency::ThreadPool pool(4);
  for (const fs::path& source : {dir_, archive_path()}) {
    const TrainingDatabase serial =
        generate_database_from_path(source, map_file, config);
    const TrainingDatabase parallel =
        generate_database_from_path(source, map_file, config, nullptr, &pool);
    EXPECT_EQ(encode_database(serial), encode_database(parallel))
        << "source: " << source;
  }
}

// generate_database_from_path is load_collection + generate_database
// with the map read from disk; its output — bytes and report alike —
// must stay indistinguishable from that composition over the
// in-memory map. survey_digest_test.cpp pins the bytes themselves.
TEST_F(IngestParallelTest, FromPathMatchesLoadCollectionGenerate) {
  const fs::path map_file = dir_ / "site.locmap";
  for (const bool keep_samples : {false, true}) {
    GeneratorConfig config;
    config.keep_samples = keep_samples;
    config.site_name = "stream-vs-materialized";
    for (const fs::path& source : {dir_, archive_path()}) {
      GeneratorReport streamed_report;
      const TrainingDatabase streamed = generate_database_from_path(
          source, map_file, config, &streamed_report);

      GeneratorReport materialized_report;
      const TrainingDatabase materialized =
          generate_database(wiscan::load_collection(source), map_, config,
                            &materialized_report);

      EXPECT_EQ(encode_database(streamed), encode_database(materialized))
          << "source: " << source;
      EXPECT_EQ(streamed_report.unmapped_locations,
                materialized_report.unmapped_locations);
      EXPECT_EQ(streamed_report.unsurveyed_locations,
                materialized_report.unsurveyed_locations);
      EXPECT_EQ(streamed_report.dropped_pairs,
                materialized_report.dropped_pairs);
      EXPECT_EQ(streamed_report.points_built,
                materialized_report.points_built);
    }
  }
}

TEST_F(IngestParallelTest, FromPathRejectsNonCorpusSources) {
  EXPECT_THROW(generate_database_from_path(dir_ / "nope",
                                           dir_ / "site.locmap"),
               wiscan::FormatError);
  // A regular file that is not a .lar archive is not a corpus either.
  EXPECT_THROW(generate_database_from_path(dir_ / "site.locmap",
                                           dir_ / "site.locmap"),
               wiscan::FormatError);
}

TEST_F(IngestParallelTest, RepeatedParallelRunsAreDeterministic) {
  const fs::path map_file = dir_ / "site.locmap";
  concurrency::ThreadPool pool(5);
  const std::string first = encode_database(
      generate_database_from_path(dir_, map_file, {}, nullptr, &pool));
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(first,
              encode_database(generate_database_from_path(
                  dir_, map_file, {}, nullptr, &pool)));
  }
}

TEST(FromPoints, MatchesIncrementalAddPoint) {
  std::mt19937 rng(7u);
  std::uniform_real_distribution<double> dbm(-90.0, -30.0);
  std::vector<TrainingPoint> points;
  for (int i = 0; i < 12; ++i) {
    TrainingPoint p;
    p.location = "p" + std::to_string(i);
    p.position = {static_cast<double>(i), static_cast<double>(2 * i)};
    for (int a = 0; a < 6; ++a) {
      ApStatistics s;
      s.bssid = "ap:" + std::to_string((a * 5 + i) % 9);
      s.mean_dbm = dbm(rng);
      s.stddev_db = 2.0;
      s.sample_count = 10;
      s.scan_count = 10;
      s.min_dbm = s.mean_dbm - 5.0;
      s.max_dbm = s.mean_dbm + 5.0;
      p.per_ap.push_back(std::move(s));
    }
    // per_ap arrives unsorted; both construction paths must sort it.
    std::shuffle(p.per_ap.begin(), p.per_ap.end(), rng);
    points.push_back(std::move(p));
  }

  TrainingDatabase incremental;
  incremental.set_site_name("site");
  for (const TrainingPoint& p : points) incremental.add_point(p);

  const TrainingDatabase bulk =
      TrainingDatabase::from_points(points, "site");
  EXPECT_EQ(bulk.bssid_universe(), incremental.bssid_universe());
  EXPECT_EQ(encode_database(bulk), encode_database(incremental));
}

TEST(FromPoints, RejectsDuplicateLocations) {
  std::vector<TrainingPoint> points(2);
  points[0].location = "same";
  points[1].location = "same";
  EXPECT_THROW(TrainingDatabase::from_points(std::move(points)),
               DatabaseError);
}

void expect_same_compilation(const core::CompiledDatabase& a,
                             const core::CompiledDatabase& b) {
  ASSERT_EQ(a.point_count(), b.point_count());
  ASSERT_EQ(a.universe_size(), b.universe_size());
  EXPECT_EQ(encode_database(a.database()), encode_database(b.database()));
  const std::size_t row = a.universe_size() * sizeof(double);
  for (std::size_t p = 0; p < a.point_count(); ++p) {
    EXPECT_EQ(std::memcmp(a.mean_row(p), b.mean_row(p), row), 0);
    EXPECT_EQ(std::memcmp(a.stddev_row(p), b.stddev_row(p), row), 0);
    EXPECT_EQ(std::memcmp(a.mask_row(p), b.mask_row(p), row), 0);
    EXPECT_EQ(std::memcmp(a.weight_row(p), b.weight_row(p), row), 0);
    EXPECT_EQ(a.trained_count(p), b.trained_count(p));
  }
}

TEST_F(IngestParallelTest, CompileCollectionMatchesCompileAfterLoad) {
  const wiscan::Collection collection = wiscan::load_collection(dir_);
  GeneratorConfig config;
  config.site_name = "direct";

  const TrainingDatabase two_step_db =
      generate_database(collection, map_, config);
  const auto two_step = core::CompiledDatabase::compile(two_step_db);

  GeneratorReport report;
  const auto direct = core::CompiledDatabase::compile_owned(
      generate_database(collection, map_, config, &report));
  ASSERT_NE(direct, nullptr);
  expect_same_compilation(*direct, *two_step);
  EXPECT_EQ(report.points_built, two_step_db.size());

  concurrency::ThreadPool pool(4);
  const auto direct_parallel = core::CompiledDatabase::compile_owned(
      generate_database_parallel(collection, map_, pool, config));
  expect_same_compilation(*direct_parallel, *two_step);
}

TEST_F(IngestParallelTest, LoadCompiledDatabaseMatchesDecodeThenCompile) {
  GeneratorConfig config;
  config.keep_samples = true;
  const TrainingDatabase db = generate_database_from_path(
      dir_, dir_ / "site.locmap", config);
  const fs::path ltdb = dir_ / "site.ltdb";
  write_database(ltdb, db);

  const auto loaded =
      core::CompiledDatabase::compile_owned(read_database(ltdb));
  ASSERT_NE(loaded, nullptr);
  expect_same_compilation(*loaded, *core::CompiledDatabase::compile(db));

  EXPECT_THROW(read_database(dir_ / "missing.ltdb"), CodecError);
}

TEST_F(IngestParallelTest, ProbeDatabaseReadsHeaderWithoutPayload) {
  for (const bool keep_samples : {false, true}) {
    GeneratorConfig config;
    config.keep_samples = keep_samples;
    config.site_name = keep_samples ? "with-samples" : "stats-only";
    const TrainingDatabase db = generate_database_from_path(
        dir_, dir_ / "site.locmap", config);
    const fs::path ltdb = dir_ / "probe.ltdb";
    write_database(ltdb, db);

    const DatabaseFileInfo info = probe_database(ltdb);
    EXPECT_EQ(info.version, 1);
    EXPECT_EQ(info.site_name, config.site_name);
    EXPECT_EQ(info.has_samples(), keep_samples);
    EXPECT_EQ(info.file_bytes, static_cast<std::uint64_t>(
                                   fs::file_size(ltdb)));
  }

  std::ofstream(dir_ / "junk.ltdb") << "not a database";
  EXPECT_THROW(probe_database(dir_ / "junk.ltdb"), CodecError);
  EXPECT_THROW(probe_database(dir_ / "missing.ltdb"), CodecError);
}

}  // namespace
}  // namespace loctk::traindb

#pragma once

// Shared by the survey digest tests (survey_digest_test.cpp, quick
// tier; survey_digest_conformance_test.cpp, the campus case): pins the
// training-database bytes a served cold start builds. A survey written
// by SurveyCampaign::run_to_directory at a fixed seed is read back
// through load_collection + generate_database on 1-thread, 4-thread
// and default pools, encoded, and hashed with FNV-1a. The digests were
// recorded before wi-scan rows were interned; a change to the text
// format, the parser, the per-AP grouping, the Welford order or the
// universe build moves them. testkit_soak_test.cpp pins soak report
// digests with the same fnv1a and hex.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "concurrency/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "radio/scanner.hpp"
#include "traindb/codec.hpp"
#include "traindb/generator.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/survey.hpp"

namespace loctk::testing {

namespace fs = std::filesystem;

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// A survey directory unique to the running test (ctest runs cases as
// concurrent processes).
class SurveyDigest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("loctk_survey_digest_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Digests of the survey in dir_ with keep_samples off, then on, each
  // loaded and generated on a 1-thread pool (the serial form), on a
  // 4-thread pool and on the default pool.
  void expect_digests(const wiscan::LocationMap& map,
                      std::uint64_t stats_only, std::uint64_t with_samples) {
    concurrency::ThreadPool serial(1);
    concurrency::ThreadPool four(4);
    for (concurrency::ThreadPool* pool :
         {&serial, &four, static_cast<concurrency::ThreadPool*>(nullptr)}) {
      const std::string label =
          pool == nullptr
              ? "default pool"
              : std::to_string(pool->thread_count()) + "-thread pool";
      const wiscan::Collection collection =
          wiscan::load_collection(dir_, pool);
      traindb::GeneratorConfig config;
      config.site_name = "digest";
      EXPECT_EQ(hex(fnv1a(traindb::encode_database(traindb::generate_database(
                    collection, map, config, nullptr, pool)))),
                hex(stats_only))
          << label;
      config.keep_samples = true;
      EXPECT_EQ(hex(fnv1a(traindb::encode_database(traindb::generate_database(
                    collection, map, config, nullptr, pool)))),
                hex(with_samples))
          << label;
    }
  }

  void survey(const core::Testbed& testbed, const wiscan::LocationMap& map,
              int scans) {
    radio::Scanner scanner = testbed.make_scanner(9001);
    wiscan::SurveyConfig config;
    config.scans_per_location = scans;
    wiscan::SurveyCampaign(scanner, config).run_to_directory(map, dir_);
  }

  fs::path dir_;
};

}  // namespace loctk::testing

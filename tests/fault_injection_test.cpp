// Fault-injection hardening tests: the structured error taxonomy, the
// FaultInjector hooks in read_file_bytes, per-file quarantine in
// the batch ingest paths, degraded-mode localization, and randomized
// corruption fuzzing through the try_* entry points. Everything here
// runs under the ASan/UBSan CI job — the contract is "corrupt input
// yields a typed loctk::Error, never UB or a crash".

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/error.hpp"
#include "base/fault_injector.hpp"
#include "base/metrics.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/geometric.hpp"
#include "core/location_service.hpp"
#include "core/probabilistic.hpp"
#include "radio/environment.hpp"
#include "traindb/codec.hpp"
#include "traindb/database.hpp"
#include "traindb/generator.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/format.hpp"
#include "wiscan/location_map.hpp"
#include "wiscan/scan_buffer.hpp"

#include "test_fixtures.hpp"

namespace loctk {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Error / Result taxonomy.

TEST(ErrorTaxonomy, CodeNamesAreStable) {
  EXPECT_EQ(error_code_name(ErrorCode::kIo), "io");
  EXPECT_EQ(error_code_name(ErrorCode::kParse), "parse");
  EXPECT_EQ(error_code_name(ErrorCode::kCorrupt), "corrupt");
  EXPECT_EQ(error_code_name(ErrorCode::kDegenerate), "degenerate");
  EXPECT_EQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST(ErrorTaxonomy, ContextChainsInnermostFirst) {
  Error e(ErrorCode::kCorrupt, "codec: bad magic");
  e.with_context("decoding 'site.ltdb'").with_context("loading site");
  ASSERT_EQ(e.context().size(), 2u);
  EXPECT_EQ(e.context()[0], "decoding 'site.ltdb'");
  EXPECT_EQ(e.context()[1], "loading site");
  EXPECT_EQ(e.to_string(),
            "[corrupt] codec: bad magic (while decoding 'site.ltdb'; "
            "while loading site)");
}

TEST(ErrorTaxonomy, ToStringWithoutContextIsBare) {
  const Error e(ErrorCode::kIo, "open failed");
  EXPECT_EQ(e.to_string(), "[io] open failed");
}

TEST(ErrorTaxonomy, ResultCarriesValueOrError) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.value_or(-1), 7);

  Result<int> bad = Error(ErrorCode::kParse, "nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kParse);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ErrorTaxonomy, ResultWithContextOnlyTouchesErrors) {
  Result<int> good = Result<int>(1);
  good = std::move(good).with_context("ignored");
  ASSERT_TRUE(good.ok());

  Result<int> bad =
      Result<int>(Error(ErrorCode::kIo, "gone")).with_context("reading x");
  ASSERT_FALSE(bad.ok());
  ASSERT_EQ(bad.error().context().size(), 1u);
  EXPECT_EQ(bad.error().context()[0], "reading x");
}

TEST(ErrorTaxonomy, VoidResult) {
  Result<void> ok;
  EXPECT_TRUE(ok.ok());
  Result<void> bad = Error(ErrorCode::kInternal, "bug");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kInternal);
}

// ---------------------------------------------------------------------
// FaultInjector primitives.

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("loctk_fault_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ / "payload.bin";
    payload_.assign(512, '\0');
    for (std::size_t i = 0; i < payload_.size(); ++i) {
      payload_[i] = static_cast<char>('a' + i % 26);
    }
    std::ofstream(path_, std::ios::binary) << payload_;
  }
  void TearDown() override {
    FaultInjector::instance().disarm();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  fs::path path_;
  std::string payload_;
};

TEST_F(FaultInjectorTest, DisarmedIsTransparent) {
  ASSERT_FALSE(FaultInjector::instance().armed());
  EXPECT_EQ(wiscan::read_file_bytes(path_), payload_);
  EXPECT_FALSE(FaultInjector::instance().should_fail_io());
  std::string bytes = payload_;
  EXPECT_FALSE(FaultInjector::instance().corrupt(bytes));
  EXPECT_EQ(bytes, payload_);
}

TEST_F(FaultInjectorTest, CertainIoFailureVetoesEveryRead) {
  FaultInjectorConfig cfg;
  cfg.io_failure_probability = 1.0;
  ScopedFaultInjection scoped(cfg);
  EXPECT_THROW(wiscan::read_file_bytes(path_), wiscan::BufferError);
  EXPECT_THROW(wiscan::read_wiscan(path_), wiscan::FormatError);

  const Result<std::string> r = wiscan::try_read_file_bytes(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIo);
  EXPECT_GE(FaultInjector::instance().stats().vetoed_opens, 3u);
}

TEST_F(FaultInjectorTest, CertainTruncationShortensTheBuffer) {
  FaultInjectorConfig cfg;
  cfg.truncate_probability = 1.0;
  ScopedFaultInjection scoped(cfg);
  const std::string bytes = wiscan::read_file_bytes(path_);
  EXPECT_LT(bytes.size(), payload_.size());
  EXPECT_EQ(bytes, payload_.substr(0, bytes.size()));
  EXPECT_GE(FaultInjector::instance().stats().truncations, 1u);
}

TEST_F(FaultInjectorTest, CertainBitflipsMutateWithoutResizing) {
  FaultInjectorConfig cfg;
  cfg.bitflip_probability = 1.0;
  ScopedFaultInjection scoped(cfg);
  const std::string bytes = wiscan::read_file_bytes(path_);
  ASSERT_EQ(bytes.size(), payload_.size());
  EXPECT_NE(bytes, payload_);
  EXPECT_GE(FaultInjector::instance().stats().bitflips, 1u);
}

TEST_F(FaultInjectorTest, SameSeedIsDeterministic) {
  FaultInjectorConfig cfg;
  cfg.truncate_probability = 0.5;
  cfg.bitflip_probability = 0.5;
  cfg.seed = 42;

  std::vector<std::string> first, second;
  for (std::vector<std::string>* out : {&first, &second}) {
    ScopedFaultInjection scoped(cfg);
    for (int i = 0; i < 16; ++i) {
      out->push_back(wiscan::read_file_bytes(path_));
    }
  }
  EXPECT_EQ(first, second);
}

TEST_F(FaultInjectorTest, ScopeExitDisarms) {
  {
    FaultInjectorConfig cfg;
    cfg.io_failure_probability = 1.0;
    ScopedFaultInjection scoped(cfg);
    EXPECT_TRUE(FaultInjector::instance().armed());
  }
  EXPECT_FALSE(FaultInjector::instance().armed());
  EXPECT_EQ(wiscan::read_file_bytes(path_), payload_);
}

// ---------------------------------------------------------------------
// Per-file quarantine in the batch ingest paths.

class QuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("loctk_quarantine_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "corpus" / "wing");
    build_corpus(dir_ / "corpus");

    std::string map_text = "# location-map v1\n";
    for (int i = 0; i < kFiles; ++i) {
      map_text += location(i) + " " + std::to_string(4 * i) + ".0 " +
                  std::to_string(2 * i) + ".5\n";
    }
    std::ofstream(dir_ / "site.locmap") << map_text;
  }
  void TearDown() override {
    FaultInjector::instance().disarm();
    fs::remove_all(dir_);
  }

  static constexpr int kFiles = 12;

  static std::string location(int i) {
    return "room-" + std::to_string(i / 10) + std::to_string(i % 10);
  }

  // Deterministic corpus: every run of every test sees identical
  // bytes, so "quarantined parallel run == clean serial run" is an
  // exact byte comparison, not a statistical one.
  void build_corpus(const fs::path& root) const {
    for (int i = 0; i < kFiles; ++i) {
      std::string text = "# wi-scan v1\n# location: " + location(i) + "\n";
      for (int t = 0; t < 6; ++t) {
        for (int a = 0; a < 4; ++a) {
          text += "time=" + std::to_string(t) + ".0 bssid=ap:0" +
                  std::to_string(a) + " ssid=net channel=6 rssi=-" +
                  std::to_string(40 + 3 * a + (t + i) % 5) + ".0\n";
        }
      }
      const fs::path rel = i % 2 == 0
                               ? fs::path(location(i) + ".wiscan")
                               : fs::path("wing") / (location(i) + ".wiscan");
      std::ofstream(root / rel) << text;
    }
  }

  // The corpus path of file `i` (mirrors build_corpus's layout).
  fs::path file_path(int i) const {
    const fs::path rel = i % 2 == 0
                             ? fs::path(location(i) + ".wiscan")
                             : fs::path("wing") / (location(i) + ".wiscan");
    return dir_ / "corpus" / rel;
  }

  void corrupt_file(int i) const {
    std::ofstream(file_path(i))
        << "# wi-scan v1\n# location: " + location(i) +
               "\ntime=0.0 bssid=ap:00 rssi=not-a-number\n";
  }

  fs::path dir_;
};

TEST_F(QuarantineTest, CorruptFileIsQuarantinedRestLoads) {
  corrupt_file(5);
  wiscan::LoadReport report;
  const wiscan::Collection got =
      wiscan::load_collection(dir_ / "corpus", nullptr, &report);

  EXPECT_EQ(got.files.size(), kFiles - 1u);
  EXPECT_EQ(report.files_loaded, kFiles - 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].error.code(), ErrorCode::kParse);
  EXPECT_NE(report.quarantined[0].source.find(location(5)),
            std::string::npos);
  // The survivors are exactly the clean files, in the usual order.
  for (const wiscan::WiScanFile& f : got.files) {
    EXPECT_NE(f.location, location(5));
  }
}

TEST_F(QuarantineTest, WithoutReportCorruptFileStillThrows) {
  corrupt_file(5);
  EXPECT_THROW(wiscan::load_collection(dir_ / "corpus"),
               wiscan::FormatError);
}

TEST_F(QuarantineTest, UnreadableFileQuarantinesAsIo) {
  FaultInjectorConfig cfg;
  cfg.io_failure_probability = 0.4;
  cfg.seed = 7;
  ScopedFaultInjection scoped(cfg);

  concurrency::ThreadPool pool(4);
  wiscan::LoadReport report;
  const wiscan::Collection got =
      wiscan::load_collection(dir_ / "corpus", &pool, &report);

  EXPECT_EQ(report.files_loaded + report.quarantined.size(),
            static_cast<std::size_t>(kFiles));
  EXPECT_EQ(got.files.size(), report.files_loaded);
  for (const wiscan::QuarantinedFile& q : report.quarantined) {
    EXPECT_EQ(q.error.code(), ErrorCode::kIo) << q.error.to_string();
  }
}

// ingest.bytes_read counts what each read returned: a vetoed read adds
// nothing, a clean load adds exactly the files' sizes.
TEST_F(QuarantineTest, BytesReadCountsOnlySuccessfulReads) {
  metrics::Counter& bytes_read = metrics::counter("ingest.bytes_read");
  std::uint64_t corpus_bytes = 0;
  for (int i = 0; i < kFiles; ++i) corpus_bytes += fs::file_size(file_path(i));

  concurrency::ThreadPool pool(3);
  for (concurrency::ThreadPool* p : {static_cast<concurrency::ThreadPool*>(
                                         nullptr),
                                     &pool}) {
    {
      FaultInjectorConfig cfg;
      cfg.io_failure_probability = 1.0;
      ScopedFaultInjection scoped(cfg);
      wiscan::LoadReport report;
      const std::uint64_t before = bytes_read.value();
      const wiscan::Collection got =
          wiscan::load_collection(dir_ / "corpus", p, &report);
      EXPECT_TRUE(got.files.empty());
      EXPECT_EQ(report.quarantined.size(), static_cast<std::size_t>(kFiles));
      EXPECT_EQ(bytes_read.value() - before, 0u);
    }
    const std::uint64_t before = bytes_read.value();
    const wiscan::Collection got = wiscan::load_collection(dir_ / "corpus", p);
    EXPECT_EQ(got.files.size(), static_cast<std::size_t>(kFiles));
    EXPECT_EQ(bytes_read.value() - before, corpus_bytes);
  }
  // The path-form generator reads through the same loader.
  const std::uint64_t before = bytes_read.value();
  traindb::generate_database_from_path(dir_ / "corpus", dir_ / "site.locmap");
  EXPECT_EQ(bytes_read.value() - before, corpus_bytes);
}

TEST_F(QuarantineTest, ArchiveEntryQuarantine) {
  auto archive = wiscan::Archive::pack_directory(dir_ / "corpus");
  archive.add("broken.wiscan", "# wi-scan v1\nrssi=\n");

  wiscan::LoadReport report;
  const wiscan::Collection got =
      wiscan::load_collection(archive, nullptr, &report);
  EXPECT_EQ(got.files.size(), static_cast<std::size_t>(kFiles));
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].error.code(), ErrorCode::kParse);
  EXPECT_NE(report.quarantined[0].source.find("broken.wiscan"),
            std::string::npos);
}

// The acceptance-criterion test: one corrupt file in a multi-file
// batch is quarantined while the surviving files produce a database
// byte-identical to a clean serial run over the corpus without that
// file — regardless of worker count or completion order.
TEST_F(QuarantineTest, QuarantinedBatchMatchesCleanSerialRunByteForByte) {
  corrupt_file(7);

  // Clean reference: the same corpus minus the corrupt file, serial.
  const fs::path clean = dir_ / "clean";
  fs::create_directories(clean / "wing");
  build_corpus(clean);
  fs::remove(clean / "wing" / (location(7) + ".wiscan"));

  const traindb::TrainingDatabase reference =
      traindb::generate_database_from_path(clean, dir_ / "site.locmap");

  traindb::GeneratorConfig cfg;
  cfg.quarantine_corrupt_files = true;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    concurrency::ThreadPool pool(workers == 0 ? 1 : workers);
    traindb::GeneratorReport report;
    const traindb::TrainingDatabase got =
        traindb::generate_database_from_path(
            dir_ / "corpus", dir_ / "site.locmap", cfg, &report,
            workers == 0 ? nullptr : &pool);

    ASSERT_EQ(report.quarantined.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(report.quarantined[0].error.code(), ErrorCode::kParse);
    EXPECT_NE(report.quarantined[0].source.find(location(7)),
              std::string::npos);
    EXPECT_EQ(traindb::encode_database(got),
              traindb::encode_database(reference))
        << "workers=" << workers;
  }
}

TEST_F(QuarantineTest, TryGenerateMapsWholeBatchFailures) {
  // Nonexistent source: neither directory nor archive.
  const Result<traindb::TrainingDatabase> missing =
      traindb::try_generate_database_from_path(dir_ / "nope",
                                               dir_ / "site.locmap");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code(), ErrorCode::kParse);

  // A map that matches no surveyed location: typed degenerate, not an
  // empty database the caller has to second-guess.
  std::ofstream(dir_ / "phantom.locmap")
      << "# location-map v1\nphantom 1.0 2.0\n";
  const Result<traindb::TrainingDatabase> empty =
      traindb::try_generate_database_from_path(dir_ / "corpus",
                                               dir_ / "phantom.locmap");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code(), ErrorCode::kDegenerate);

  // The happy path still comes back as a value.
  const Result<traindb::TrainingDatabase> good =
      traindb::try_generate_database_from_path(dir_ / "corpus",
                                               dir_ / "site.locmap");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().size(), static_cast<std::size_t>(kFiles));
}

// ---------------------------------------------------------------------
// Randomized corruption fuzzing through the try_* entry points. Runs
// under the ASan/UBSan CI job: every outcome must be a value or a
// typed Error — never a crash, never UB.

std::string golden_db_bytes() {
  traindb::TrainingDatabase db;
  db.set_site_name("fuzz");
  for (int i = 0; i < 4; ++i) {
    traindb::TrainingPoint p;
    p.location = "p" + std::to_string(i);
    p.position = {i * 10.0, 5.0};
    traindb::ApStatistics s;
    s.bssid = "aa:bb:cc:dd:ee:0" + std::to_string(i);
    s.mean_dbm = -50.0 - i;
    s.stddev_db = 3.0;
    s.sample_count = 90;
    s.scan_count = 90;
    s.min_dbm = -60.0;
    s.max_dbm = -45.0;
    for (int k = 0; k < 50; ++k) {
      s.samples_centi_dbm.push_back(-5000 - (k % 9) * 50);
    }
    p.per_ap.push_back(std::move(s));
    db.add_point(std::move(p));
  }
  return traindb::encode_database(db);
}

std::string golden_wiscan_text() {
  std::string text = "# wi-scan v1\n# location: kitchen\n";
  for (int t = 0; t < 8; ++t) {
    for (int a = 0; a < 5; ++a) {
      text += "time=" + std::to_string(t) + ".25 bssid=0a:0b:0c:0d:0e:0" +
              std::to_string(a) + " ssid=net channel=" +
              std::to_string(1 + a) + " rssi=-" +
              std::to_string(45 + 4 * a + t % 3) + ".5\n";
    }
  }
  return text;
}

// One random structural mutation: overwrite, truncate, extend, or
// excise a slice. Biased toward overwrites, like real bit rot.
void mutate(std::string& bytes, std::mt19937_64& rng) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<char>(rng() & 0xff));
    return;
  }
  switch (rng() % 6) {
    case 0:  // truncate to a random prefix
      bytes.resize(rng() % bytes.size());
      break;
    case 1:  // append random garbage
      for (int i = 0; i < 9; ++i) {
        bytes.push_back(static_cast<char>(rng() & 0xff));
      }
      break;
    case 2: {  // excise an interior slice
      const std::size_t from = rng() % bytes.size();
      const std::size_t len = 1 + rng() % 16;
      bytes.erase(from, len);
      break;
    }
    default: {  // overwrite 1..4 random bytes
      const int n = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < n; ++i) {
        bytes[rng() % bytes.size()] = static_cast<char>(rng() & 0xff);
      }
      break;
    }
  }
}

TEST(FuzzStructuredErrors, MutatedTraindbBytesAlwaysTyped) {
  const std::string good = golden_db_bytes();
  std::mt19937_64 rng(20260806u);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    std::string bytes = good;
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) mutate(bytes, rng);

    const Result<traindb::TrainingDatabase> r =
        traindb::try_decode_database(bytes);
    if (r.ok()) {
      // A lucky mutation may still decode; the result must be sane.
      EXPECT_LE(r.value().size(), 64u);
      ++parsed;
    } else {
      // Structural damage is kCorrupt — never kInternal (that would
      // mean an exception class the adapter doesn't know escaped).
      EXPECT_EQ(r.error().code(), ErrorCode::kCorrupt)
          << r.error().to_string();
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 1200);
  EXPECT_GT(rejected, 300);  // corruption is usually detected
}

TEST(FuzzStructuredErrors, MutatedWiscanTextAlwaysTyped) {
  const std::string good = golden_wiscan_text();
  std::mt19937_64 rng(0xfeedbeefu);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::string text = good;
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) mutate(text, rng);

    const Result<wiscan::WiScanFile> r =
        wiscan::try_parse_wiscan_buffer(text, "fallback");
    if (r.ok()) {
      EXPECT_LE(r.value().size(), 80u);
      ++parsed;
    } else {
      EXPECT_EQ(r.error().code(), ErrorCode::kParse)
          << r.error().to_string();
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 1000);
}

TEST(FuzzStructuredErrors, MutatedLocationMapAlwaysTyped) {
  const std::string good =
      "# location-map v1\nkitchen 1.0 2.0\nhall 3.5 4.5\nlab 9.0 9.0\n";
  std::mt19937_64 rng(77u);
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = good;
    mutate(text, rng);
    const Result<wiscan::LocationMap> r =
        wiscan::try_parse_location_map_buffer(text);
    if (!r.ok()) {
      EXPECT_EQ(r.error().code(), ErrorCode::kParse)
          << r.error().to_string();
    }
  }
}

TEST(FuzzStructuredErrors, InjectedRotThroughFullReadPath) {
  const fs::path dir =
      fs::temp_directory_path() / "loctk_fault_InjectedRotFullRead";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "site.ltdb";
  std::ofstream(path, std::ios::binary) << golden_db_bytes();

  FaultInjectorConfig cfg;
  cfg.io_failure_probability = 0.1;
  cfg.truncate_probability = 0.4;
  cfg.bitflip_probability = 0.4;
  cfg.seed = 0xc0ffee;
  {
    ScopedFaultInjection scoped(cfg);
    int io = 0, corrupt = 0, ok = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const Result<traindb::TrainingDatabase> r =
          traindb::try_read_database(path);
      if (r.ok()) {
        ++ok;
      } else if (r.error().code() == ErrorCode::kIo) {
        ++io;
      } else {
        EXPECT_EQ(r.error().code(), ErrorCode::kCorrupt)
            << r.error().to_string();
        ++corrupt;
      }
    }
    EXPECT_EQ(io + corrupt + ok, 300);
    EXPECT_GT(io, 0);
    EXPECT_GT(corrupt, 0);
    EXPECT_GT(ok, 0);  // some reads survive untouched
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Degraded-mode localization: degenerate inputs come back as typed
// kDegenerate errors from every locator, and the live service coasts
// with a reason instead of crashing or lying.

using testing::fixture_ap_positions;
using testing::fixture_bssids;
using testing::fixture_observation;
using testing::make_fixture_db;

radio::Environment fixture_env() {
  radio::Environment env(geom::Rect::sized(40.0, 40.0));
  for (std::size_t i = 0; i < fixture_bssids().size(); ++i) {
    radio::AccessPoint ap;
    ap.bssid = fixture_bssids()[i];
    ap.name = std::string(1, static_cast<char>('A' + i));
    ap.position = fixture_ap_positions()[i];
    env.add_access_point(ap);
  }
  return env;
}

radio::ScanRecord scan_of(
    const std::vector<std::pair<std::string, double>>& samples) {
  radio::ScanRecord scan;
  scan.timestamp_s = 0.0;
  for (const auto& [bssid, rssi] : samples) {
    scan.samples.push_back({bssid, rssi, 1});
  }
  return scan;
}

TEST(DegradedLocate, EmptyObservationIsTypedDegenerate) {
  const auto db = make_fixture_db();
  const core::ProbabilisticLocator locator(db);
  const Result<core::LocationEstimate> r =
      locator.try_locate(core::Observation{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDegenerate);
  EXPECT_NE(r.error().to_string().find("empty observation"),
            std::string::npos);
}

TEST(DegradedLocate, NonFiniteObservationIsTypedDegenerate) {
  const auto db = make_fixture_db();
  const core::ProbabilisticLocator locator(db);
  const core::Observation obs = core::Observation::from_scans({scan_of(
      {{fixture_bssids()[0], std::numeric_limits<double>::quiet_NaN()},
       {fixture_bssids()[1], -50.0}})});
  EXPECT_FALSE(obs.is_finite());
  const Result<core::LocationEstimate> r = locator.try_locate(obs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDegenerate);
  EXPECT_NE(r.error().to_string().find("non-finite"), std::string::npos);
}

TEST(DegradedLocate, AllUnknownBssidsIsTypedDegenerate) {
  const auto db = make_fixture_db();
  const core::ProbabilisticLocator locator(db);
  const core::Observation obs = core::Observation::from_scans(
      {scan_of({{"ff:ff:ff:ff:ff:01", -60.0},
                {"ff:ff:ff:ff:ff:02", -70.0}})});
  const Result<core::LocationEstimate> r = locator.try_locate(obs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDegenerate);
}

TEST(DegradedLocate, GeometricTooFewCirclesIsTypedDegenerate) {
  const auto db = make_fixture_db();
  const core::GeometricLocator locator(db, fixture_env());
  // Only two known APs: fewer than the three circles lateration needs.
  const core::Observation obs = core::Observation::from_scans(
      {scan_of({{fixture_bssids()[0], -50.0},
                {fixture_bssids()[1], -55.0}})});
  const Result<core::LocationEstimate> r = locator.try_locate(obs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kDegenerate);
}

TEST(DegradedLocate, ThrowingLocatorIsInternal) {
  struct ThrowingLocator : core::Locator {
    core::LocationEstimate locate(const core::Observation&) const override {
      throw std::runtime_error("index out of range");
    }
    std::string name() const override { return "throwing"; }
  };
  const ThrowingLocator locator;
  const Result<core::LocationEstimate> r =
      locator.try_locate(fixture_observation({20.0, 20.0}));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInternal);
  EXPECT_NE(r.error().to_string().find("throwing"), std::string::npos);
}

TEST(DegradedLocate, WellFormedObservationStillSucceeds) {
  const auto db = make_fixture_db();
  const core::ProbabilisticLocator locator(db);
  const Result<core::LocationEstimate> r =
      locator.try_locate(fixture_observation({10.0, 10.0}));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r.value().valid);
}

TEST(ServiceDegraded, NonFiniteSamplesRejectedAtTheDoor) {
  const auto db = make_fixture_db();
  const core::ProbabilisticLocator locator(db);
  core::LocationServiceConfig cfg;
  cfg.window_scans = 2;
  cfg.min_scans = 1;
  core::LocationService service(locator, cfg);

  radio::ScanRecord scan = scan_of(
      {{fixture_bssids()[0], -45.0},
       {fixture_bssids()[1], std::numeric_limits<double>::infinity()},
       {fixture_bssids()[2], std::numeric_limits<double>::quiet_NaN()},
       {fixture_bssids()[3], -60.0}});
  const core::ServiceFix fix = service.on_scan(scan);
  EXPECT_EQ(service.rejected_samples(), 2u);
  // The two surviving finite samples still produce a fix.
  EXPECT_TRUE(fix.valid);
  EXPECT_FALSE(fix.degraded());
}

TEST(ServiceDegraded, CoastsWithReasonWhenTheWindowGoesDark) {
  const auto db = make_fixture_db();
  const core::ProbabilisticLocator locator(db);
  core::LocationServiceConfig cfg;
  cfg.window_scans = 2;
  cfg.min_scans = 1;
  core::LocationService service(locator, cfg);

  // Establish a track on good scans.
  radio::ScanRecord good;
  good.timestamp_s = 0.0;
  for (std::size_t a = 0; a < fixture_bssids().size(); ++a) {
    good.samples.push_back(
        {fixture_bssids()[a], testing::fixture_mean_rssi(a, {10.0, 10.0}),
         1});
  }
  service.on_scan(good);
  core::ServiceFix fix = service.on_scan(good);
  ASSERT_TRUE(fix.valid);
  ASSERT_FALSE(fix.degraded());

  // Flush the window with scans the locator cannot answer: the fix
  // coasts on the Kalman track and says why it is degraded.
  const radio::ScanRecord dark =
      scan_of({{"ff:ff:ff:ff:ff:99", -80.0}});
  service.on_scan(dark);
  fix = service.on_scan(dark);
  EXPECT_TRUE(fix.valid);
  ASSERT_TRUE(fix.degraded());
  EXPECT_NE(fix.degraded_reason.find("degenerate"), std::string::npos);
}

TEST(ServiceDegraded, InvalidFixCarriesReasonWithoutTrack) {
  const auto db = make_fixture_db();
  const core::ProbabilisticLocator locator(db);
  core::LocationServiceConfig cfg;
  cfg.window_scans = 2;
  cfg.min_scans = 1;
  core::LocationService service(locator, cfg);

  const core::ServiceFix fix =
      service.on_scan(scan_of({{"ff:ff:ff:ff:ff:99", -80.0}}));
  EXPECT_FALSE(fix.valid);
  EXPECT_TRUE(fix.degraded());
}

}  // namespace
}  // namespace loctk

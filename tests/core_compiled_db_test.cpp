// Equivalence tests for the compiled scoring engine: the dense
// kernels behind score_all()/locate() must reproduce the string-keyed
// string-keyed reference scorers (testkit/locator_reference.hpp)
// bit-for-bit up to FP reassociation (|Δ| < 1e-9),
// across randomized databases and observations with varying AP
// overlap, rogue APs, and the min_common_aps cutoff path.

#include "core/compiled_db.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/histogram_locator.hpp"
#include "core/knn.hpp"
#include "core/probabilistic.hpp"
#include "core/ssd_locator.hpp"
#include "stats/rng.hpp"
#include "test_fixtures.hpp"
#include "testkit/locator_reference.hpp"

namespace loctk::core {
namespace {

constexpr double kTol = 1e-9;

std::string bssid_name(int i) {
  return "aa:bb:" + std::to_string(i / 10) + std::to_string(i % 10);
}

// Random database: `universe_n` BSSIDs, each point trains a random
// subset, with raw samples retained for the histogram locator.
traindb::TrainingDatabase random_db(stats::Rng& rng, int points_n,
                                    int universe_n) {
  traindb::TrainingDatabase db;
  for (int p = 0; p < points_n; ++p) {
    traindb::TrainingPoint tp;
    tp.location = "pt" + std::to_string(p);
    tp.position = {rng.uniform(0.0, 120.0), rng.uniform(0.0, 80.0)};
    for (int a = 0; a < universe_n; ++a) {
      // Keep at least one AP per point so add_point always has a row.
      if (a > 0 && rng.bernoulli(0.35)) continue;
      traindb::ApStatistics s;
      s.bssid = bssid_name(a);
      s.mean_dbm = rng.uniform(-95.0, -35.0);
      s.stddev_db = rng.uniform(0.0, 6.0);
      s.scan_count = 90;
      s.sample_count =
          static_cast<std::uint32_t>(rng.uniform_int(1, 90));
      const int samples = static_cast<int>(rng.uniform_int(3, 12));
      for (int k = 0; k < samples; ++k) {
        s.samples_centi_dbm.push_back(static_cast<std::int32_t>(
            std::lround(rng.uniform(-110.0, -20.0) * 100.0)));
      }
      tp.per_ap.push_back(std::move(s));
    }
    db.add_point(std::move(tp));
  }
  return db;
}

// Random observation: a subset of the universe plus a few rogue APs
// never trained anywhere, multiple raw readings per AP.
Observation random_obs(stats::Rng& rng, int universe_n) {
  std::vector<radio::ScanRecord> scans(1);
  for (int a = 0; a < universe_n; ++a) {
    if (rng.bernoulli(0.4)) continue;
    const int readings = static_cast<int>(rng.uniform_int(1, 5));
    for (int k = 0; k < readings; ++k) {
      scans[0].samples.push_back(
          {bssid_name(a), rng.uniform(-105.0, -25.0), 1});
    }
  }
  const int rogues = static_cast<int>(rng.uniform_int(0, 2));
  for (int r = 0; r < rogues; ++r) {
    scans[0].samples.push_back(
        {"rogue:" + std::to_string(r), rng.uniform(-90.0, -40.0), 1});
  }
  return Observation::from_scans(scans);
}

TEST(CompiledDatabase, InternsUniverseAndRows) {
  const auto db = testing::make_fixture_db();
  const CompiledDatabase cdb(db);
  ASSERT_EQ(cdb.point_count(), db.size());
  ASSERT_EQ(cdb.universe_size(), db.bssid_universe().size());
  for (std::size_t p = 0; p < db.size(); ++p) {
    const traindb::TrainingPoint& tp = db.points()[p];
    EXPECT_EQ(cdb.trained_count(p), static_cast<int>(tp.per_ap.size()));
    for (const traindb::ApStatistics& s : tp.per_ap) {
      const auto slot = cdb.slot_of(s.bssid);
      ASSERT_TRUE(slot.has_value());
      EXPECT_EQ(cdb.mean_row(p)[*slot], s.mean_dbm);
      EXPECT_EQ(cdb.stddev_row(p)[*slot], s.stddev_db);
      EXPECT_EQ(cdb.mask_row(p)[*slot], 1.0);
    }
  }
  EXPECT_FALSE(cdb.slot_of("nope").has_value());
}

// --- The flat BSSID index behind slot_of ------------------------------

// Oracle: a binary search of the sorted universe. A key has a slot only
// when the universe holds exactly its bytes, and the slot is its index.
std::optional<std::uint32_t> universe_slot(
    const std::vector<std::string>& universe, std::string_view key) {
  const auto it = std::lower_bound(universe.begin(), universe.end(), key);
  if (it == universe.end() || *it != key) return std::nullopt;
  return static_cast<std::uint32_t>(it - universe.begin());
}

// A 17-character MAC-style BSSID, the campus key shape: longer than
// libstdc++'s 15-character inline string buffer.
std::string mac_bssid(std::uint64_t v) {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x",
                static_cast<unsigned>(v >> 40 & 0xFF),
                static_cast<unsigned>(v >> 32 & 0xFF),
                static_cast<unsigned>(v >> 24 & 0xFF),
                static_cast<unsigned>(v >> 16 & 0xFF),
                static_cast<unsigned>(v >> 8 & 0xFF),
                static_cast<unsigned>(v & 0xFF));
  return buf;
}

std::vector<std::string> random_macs(stats::Rng& rng, std::size_t n) {
  std::set<std::string> macs;
  while (macs.size() < n) {
    macs.insert(mac_bssid(
        static_cast<std::uint64_t>(rng.uniform_int(0, (1LL << 48) - 1))));
  }
  return {macs.begin(), macs.end()};
}

// Keys of 1 to 40 characters that are prefixes and suffixes of each
// other, so near-misses of one key are often other keys.
std::vector<std::string> nested_keys() {
  std::vector<std::string> keys;
  for (int len = 1; len <= 40; ++len) {
    keys.push_back(std::string("hx:0123456789abcdef-0123456789abcdef-xyz")
                       .substr(0, static_cast<std::size_t>(len)));
    keys.push_back(std::string(static_cast<std::size_t>(len), 'z'));
  }
  keys.push_back("ap");
  keys.push_back(std::string("ap\0", 3));
  return keys;
}

traindb::TrainingPoint point_hearing(const std::string& location,
                                     const std::vector<std::string>& bssids) {
  traindb::TrainingPoint tp;
  tp.location = location;
  for (const std::string& bssid : bssids) {
    traindb::ApStatistics s;
    s.bssid = bssid;
    s.mean_dbm = -60.0;
    s.stddev_db = 2.0;
    s.sample_count = 10;
    s.scan_count = 10;
    tp.per_ap.push_back(std::move(s));
  }
  return tp;
}

traindb::TrainingDatabase database_hearing(
    const std::vector<std::string>& bssids) {
  return traindb::TrainingDatabase::from_points(
      {point_hearing("all", bssids)}, "index");
}

// Every universe key finds its own slot; `gone` keys find none.
void expect_index_complete(const CompiledDatabase& cdb,
                           const std::vector<std::string>& gone = {}) {
  const std::vector<std::string>& universe = cdb.database().bssid_universe();
  ASSERT_EQ(cdb.universe_size(), universe.size());
  for (std::size_t j = 0; j < universe.size(); ++j) {
    const auto slot = cdb.slot_of(universe[j]);
    ASSERT_TRUE(slot.has_value()) << universe[j];
    EXPECT_EQ(*slot, j) << universe[j];
  }
  for (const std::string& key : gone) {
    EXPECT_FALSE(cdb.slot_of(key).has_value()) << key;
  }
}

TEST(CompiledDatabaseIndex, EveryUniverseBssidFindsItsSlot) {
  stats::Rng rng(7300);
  for (const std::size_t n : {1u, 2u, 3u, 8u, 64u, 1020u, 4096u}) {
    const auto db = database_hearing(random_macs(rng, n));
    const CompiledDatabase cdb(db);
    EXPECT_EQ(cdb.universe_size(), n);
    expect_index_complete(cdb);
  }
  const auto nested = database_hearing(nested_keys());
  expect_index_complete(CompiledDatabase(nested));
}

TEST(CompiledDatabaseIndex, NearMissesOfUniverseBssidsMiss) {
  stats::Rng rng(7301);
  const auto db = database_hearing(random_macs(rng, 1020));
  const CompiledDatabase cdb(db);
  const std::string long_key(1000, 'a');
  EXPECT_FALSE(cdb.slot_of("").has_value());
  EXPECT_FALSE(cdb.slot_of(long_key).has_value());
  for (const std::string& key : db.bssid_universe()) {
    std::string with_nul = key;
    with_nul.insert(with_nul.begin() + 8, '\0');
    std::string nul_for_char = key;
    nul_for_char[16] = '\0';
    for (const std::string& miss :
         {key.substr(0, 16), key.substr(0, 8), key.substr(1), key.substr(9),
          key + std::string(1, '\0'), with_nul, nul_for_char,
          key + key.substr(0, 1), key + long_key}) {
      EXPECT_FALSE(cdb.slot_of(miss).has_value()) << key;
    }
  }

  // Keys nested in each other: each near-miss finds exactly what the
  // sorted universe holds.
  const auto nested = database_hearing(nested_keys());
  const CompiledDatabase ncdb(nested);
  const std::vector<std::string>& universe = nested.bssid_universe();
  for (const std::string& key : universe) {
    for (std::size_t cut = 0; cut <= key.size(); ++cut) {
      for (const std::string& probe :
           {key.substr(0, cut), key.substr(cut), key + std::string(1, '\0'),
            std::string(1, '\0') + key}) {
        EXPECT_EQ(ncdb.slot_of(probe), universe_slot(universe, probe))
            << "probe of length " << probe.size();
      }
    }
  }
  EXPECT_FALSE(ncdb.slot_of(long_key).has_value());
}

TEST(CompiledDatabaseIndex, EmptyUniverseFindsNothing) {
  const traindb::TrainingDatabase empty;
  const CompiledDatabase cdb(empty);
  ASSERT_EQ(cdb.universe_size(), 0u);
  EXPECT_FALSE(cdb.slot_of("").has_value());
  EXPECT_FALSE(cdb.slot_of("aa:bb:cc:dd:ee:ff").has_value());
  EXPECT_FALSE(cdb.slot_of(std::string(1000, 'a')).has_value());
  EXPECT_FALSE(cdb.slot_of(std::string(1, '\0')).has_value());
}

TEST(CompiledDatabaseIndex, DeltaCompileResultsIndexEverySlot) {
  stats::Rng rng(7302);
  const std::vector<std::string> macs = random_macs(rng, 900);
  const auto slice = [&macs](std::ptrdiff_t begin, std::ptrdiff_t end) {
    return std::vector<std::string>(macs.begin() + begin, macs.begin() + end);
  };
  // "solo" alone trains macs[300, 400); "a" and "b" share the rest.
  auto base = CompiledDatabase::compile_owned(traindb::TrainingDatabase::
      from_points({point_hearing("a", slice(0, 200)),
                   point_hearing("solo", slice(300, 400)),
                   point_hearing("b", slice(150, 300))},
                  "index"));
  expect_index_complete(*base);

  // Grow: a new point brings 300 new BSSIDs.
  DatabaseDelta grow;
  grow.upserts.push_back(point_hearing("c", slice(400, 700)));
  const auto grown = base->delta_compile(grow);
  EXPECT_EQ(grown->universe_size(), 700u);
  expect_index_complete(*grown);

  // Shrink: "solo" is resurveyed hearing only shared BSSIDs, so its
  // hundred leave the universe.
  DatabaseDelta shrink;
  shrink.upserts.push_back(point_hearing("solo", slice(0, 10)));
  const auto shrunk = grown->delta_compile(shrink);
  EXPECT_EQ(shrunk->universe_size(), 600u);
  expect_index_complete(*shrunk, slice(300, 400));

  // Both at once: "c" trades its BSSIDs for the last 200.
  DatabaseDelta both;
  both.upserts.push_back(point_hearing("c", slice(700, 900)));
  const auto moved = shrunk->delta_compile(both);
  EXPECT_EQ(moved->universe_size(), 500u);
  expect_index_complete(*moved, slice(300, 700));
}

// v2 kernel invariant: every SoA matrix row (and every compiled
// query vector) is 64-byte aligned with a row stride that is a
// multiple of 8 doubles, and the stride pad carries exact zeros —
// the SIMD kernels rely on this for unmasked aligned loads.
TEST(CompiledDatabase, RowsAre64ByteAlignedWithPaddedStride) {
  stats::Rng rng(7100);
  for (const int universe_n : {1, 3, 7, 8, 9, 16}) {
    const auto db = random_db(rng, 9, universe_n);
    const CompiledDatabase cdb(db);
    EXPECT_EQ(cdb.row_stride() % simd::kStrideDoubles, 0u);
    EXPECT_GE(cdb.row_stride(), cdb.universe_size());
    EXPECT_LT(cdb.row_stride(), cdb.universe_size() + simd::kStrideDoubles);
    for (std::size_t p = 0; p < cdb.point_count(); ++p) {
      EXPECT_TRUE(simd::is_aligned(cdb.mean_row(p)));
      EXPECT_TRUE(simd::is_aligned(cdb.stddev_row(p)));
      EXPECT_TRUE(simd::is_aligned(cdb.mask_row(p)));
      EXPECT_TRUE(simd::is_aligned(cdb.weight_row(p)));
      for (std::size_t u = cdb.universe_size(); u < cdb.row_stride(); ++u) {
        EXPECT_EQ(cdb.mean_row(p)[u], 0.0);
        EXPECT_EQ(cdb.mask_row(p)[u], 0.0);
      }
    }
    const Observation obs = random_obs(rng, universe_n);
    const CompiledObservation q = cdb.compile_observation(obs);
    ASSERT_EQ(q.mean_dbm.size(), cdb.row_stride());
    ASSERT_EQ(q.present.size(), cdb.row_stride());
    EXPECT_TRUE(simd::is_aligned(q.mean_dbm.data()));
    EXPECT_TRUE(simd::is_aligned(q.present.data()));
    for (std::size_t u = cdb.universe_size(); u < cdb.row_stride(); ++u) {
      EXPECT_EQ(q.present[u], 0.0);
      EXPECT_EQ(q.mean_dbm[u], 0.0);
    }
  }
}

TEST(CompiledDatabase, CompileObservationSplitsUniverseAndRogues) {
  const auto db = testing::make_fixture_db();
  const CompiledDatabase cdb(db);
  std::vector<radio::ScanRecord> scans(1);
  scans[0].samples.push_back({testing::fixture_bssids()[1], -55.0, 1});
  scans[0].samples.push_back({"zz:rogue", -60.0, 1});
  const Observation obs = Observation::from_scans(scans);
  const CompiledObservation q = cdb.compile_observation(obs);
  EXPECT_EQ(q.total_aps, 2u);
  EXPECT_EQ(q.in_universe(), 1);
  EXPECT_EQ(q.outside_universe, 1);
  ASSERT_EQ(q.slots.size(), 1u);
  EXPECT_EQ(q.present[q.slots[0]], 1.0);
  EXPECT_EQ(q.mean_dbm[q.slots[0]], -55.0);
}

TEST(CompiledEquivalence, ProbabilisticScoreAllMatchesReference) {
  stats::Rng rng(7001);
  for (int trial = 0; trial < 25; ++trial) {
    const int universe_n = static_cast<int>(rng.uniform_int(3, 10));
    const auto db =
        random_db(rng, static_cast<int>(rng.uniform_int(4, 30)), universe_n);
    ProbabilisticConfig cfg;
    cfg.min_common_aps = static_cast<int>(rng.uniform_int(1, 3));
    cfg.use_pooled_sigma = rng.bernoulli(0.5);
    const ProbabilisticLocator locator(db, cfg);
    for (int o = 0; o < 4; ++o) {
      const Observation obs = random_obs(rng, universe_n);
      const auto scores = locator.score_all(obs);
      ASSERT_EQ(scores.size(), db.size());
      for (std::size_t p = 0; p < db.size(); ++p) {
        int common = 0;
        const double ref = testkit::reference_log_likelihood(
            locator, obs, db.points()[p], &common);
        EXPECT_EQ(scores[p].common_aps, common);
        if (common < cfg.min_common_aps) {
          EXPECT_EQ(scores[p].log_likelihood,
                    -std::numeric_limits<double>::infinity());
        } else {
          EXPECT_NEAR(scores[p].log_likelihood, ref, kTol)
              << "trial " << trial << " point " << p;
        }
      }
      // The argmax must agree up to reference-path ties.
      const LocationEstimate est = locator.locate(obs);
      double best_ref = -std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < db.size(); ++p) {
        int common = 0;
        const double ref = testkit::reference_log_likelihood(
            locator, obs, db.points()[p], &common);
        if (common >= cfg.min_common_aps) best_ref = std::max(best_ref, ref);
      }
      if (!est.valid) {
        EXPECT_EQ(best_ref, -std::numeric_limits<double>::infinity());
      } else {
        EXPECT_NEAR(est.score, best_ref, kTol);
      }
    }
  }
}

TEST(CompiledEquivalence, KnnLocateMatchesReferenceDistances) {
  stats::Rng rng(7002);
  for (int trial = 0; trial < 25; ++trial) {
    const int universe_n = static_cast<int>(rng.uniform_int(3, 10));
    const auto db =
        random_db(rng, static_cast<int>(rng.uniform_int(4, 30)), universe_n);
    KnnConfig cfg;
    cfg.k = static_cast<int>(rng.uniform_int(1, 5));
    const KnnLocator locator(db, cfg);
    const Observation obs = random_obs(rng, universe_n);
    if (obs.empty()) continue;

    // Reference: brute-force neighbor list through the string-keyed
    // distance.
    struct Neighbor {
      const traindb::TrainingPoint* point;
      double distance;
    };
    std::vector<Neighbor> ref;
    for (const traindb::TrainingPoint& p : db.points()) {
      ref.push_back(
          {&p, testkit::reference_signal_distance(db, locator.config(), obs,
                                                  p)});
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Neighbor& a, const Neighbor& b) {
                       return a.distance < b.distance;
                     });
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(cfg.k), ref.size());
    geom::Vec2 weighted;
    double wsum = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double w = 1.0 / (ref[i].distance + cfg.weighting_epsilon);
      weighted += ref[i].point->position * w;
      wsum += w;
    }
    const LocationEstimate est = locator.locate(obs);
    ASSERT_TRUE(est.valid);
    EXPECT_NEAR(est.score, -ref.front().distance, kTol) << trial;
    EXPECT_NEAR(est.position.x, (weighted / wsum).x, 1e-6) << trial;
    EXPECT_NEAR(est.position.y, (weighted / wsum).y, 1e-6) << trial;
  }
}

TEST(CompiledEquivalence, SsdLocateMatchesReferenceIncludingCutoff) {
  stats::Rng rng(7003);
  int cutoff_seen = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int universe_n = static_cast<int>(rng.uniform_int(3, 10));
    const auto db =
        random_db(rng, static_cast<int>(rng.uniform_int(4, 25)), universe_n);
    SsdConfig cfg;
    cfg.min_common_aps = static_cast<int>(rng.uniform_int(2, 4));
    const SsdLocator locator(db, cfg);
    const Observation obs = random_obs(rng, universe_n);
    if (obs.empty()) continue;

    std::vector<double> ref;
    for (const traindb::TrainingPoint& p : db.points()) {
      ref.push_back(
          testkit::reference_ssd_distance(locator.config(), obs, p));
    }
    const double best_ref = *std::min_element(ref.begin(), ref.end());
    const LocationEstimate est = locator.locate(obs);
    if (!std::isfinite(best_ref)) {
      EXPECT_FALSE(est.valid) << trial;
      ++cutoff_seen;
    } else {
      ASSERT_TRUE(est.valid) << trial;
      EXPECT_NEAR(est.score, -best_ref, kTol) << trial;
    }
  }
  // The randomized corpus must actually exercise the cutoff path.
  EXPECT_GT(cutoff_seen, 0);
}

TEST(CompiledEquivalence, HistogramLocateMatchesReference) {
  stats::Rng rng(7004);
  for (int trial = 0; trial < 15; ++trial) {
    const int universe_n = static_cast<int>(rng.uniform_int(3, 8));
    const auto db =
        random_db(rng, static_cast<int>(rng.uniform_int(4, 15)), universe_n);
    const HistogramLocator locator(db);
    const Observation obs = random_obs(rng, universe_n);
    if (obs.empty()) continue;

    double best_ref = -std::numeric_limits<double>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t p = 0; p < db.size(); ++p) {
      const double ll =
          testkit::reference_histogram_log_likelihood(db, {}, obs, p);
      if (ll > best_ref) {
        best_ref = ll;
        best_idx = p;
      }
    }
    const LocationEstimate est = locator.locate(obs);
    ASSERT_TRUE(est.valid) << trial;
    EXPECT_NEAR(est.score, best_ref, kTol) << trial;
    EXPECT_EQ(est.location_name, db.points()[best_idx].location) << trial;
  }
}

// Satellite regression: the missing-AP penalty is applied once per AP
// present on exactly one side — never double-counted by the merge.
TEST(CompiledEquivalence, LogLikelihoodPenaltyCountPinned) {
  traindb::TrainingDatabase db;
  traindb::TrainingPoint tp;
  tp.location = "only";
  for (const char* b : {"ap:a", "ap:b", "ap:c"}) {
    traindb::ApStatistics s;
    s.bssid = b;
    s.mean_dbm = -60.0;
    s.stddev_db = 2.0;
    s.sample_count = 90;
    s.scan_count = 90;
    tp.per_ap.push_back(std::move(s));
  }
  db.add_point(std::move(tp));

  // Observed: b, c, d, e -> common = {b, c}; penalized = a (trained
  // only) + d, e (observed only) = 3.
  std::vector<radio::ScanRecord> scans(1);
  for (const char* b : {"ap:b", "ap:c", "ap:d", "ap:e"}) {
    scans[0].samples.push_back({b, -58.0, 1});
  }
  const Observation obs = Observation::from_scans(scans);

  const ProbabilisticLocator locator(db);
  int common = 0, penalized = 0;
  const double ll = testkit::reference_log_likelihood(
      locator, obs, db.points()[0], &common, &penalized);
  EXPECT_EQ(common, 2);
  EXPECT_EQ(penalized, 3);

  // Fully disjoint sides: every AP on both lists is penalized.
  std::vector<radio::ScanRecord> disjoint(1);
  disjoint[0].samples.push_back({"zz:1", -50.0, 1});
  const Observation dobs = Observation::from_scans(disjoint);
  const double dll = testkit::reference_log_likelihood(
      locator, dobs, db.points()[0], &common, &penalized);
  EXPECT_EQ(common, 0);
  EXPECT_EQ(penalized, 4);
  EXPECT_NEAR(dll, 4 * locator.config().missing_ap_log_penalty, kTol);

  // The compiled kernel applies the same penalty count.
  const auto scores = locator.score_all(obs);
  EXPECT_NEAR(scores[0].log_likelihood, ll, kTol);
}

TEST(CompiledBatch, LocateBatchMatchesSerialAndParallel) {
  const auto db = testing::make_fixture_db();
  const auto compiled = CompiledDatabase::compile(db);
  const ProbabilisticLocator locator(compiled);
  std::vector<Observation> batch;
  stats::Rng rng(7005);
  for (int i = 0; i < 24; ++i) {
    batch.push_back(testing::fixture_observation(
        {rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)}));
  }
  const auto serial = locator.locate_batch(batch);
  ASSERT_EQ(serial.size(), batch.size());
  concurrency::ThreadPool pool(4);
  const auto parallel = locator.locate_batch(batch, &pool);
  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const LocationEstimate one = locator.locate(batch[i]);
    EXPECT_EQ(serial[i].location_name, one.location_name) << i;
    EXPECT_EQ(serial[i].score, one.score) << i;
    EXPECT_EQ(parallel[i].location_name, one.location_name) << i;
    EXPECT_EQ(parallel[i].score, one.score) << i;
  }

  const auto per_point = locator.score_batch(batch, &pool);
  ASSERT_EQ(per_point.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto direct = locator.score_all(batch[i]);
    ASSERT_EQ(per_point[i].size(), direct.size());
    for (std::size_t p = 0; p < direct.size(); ++p) {
      EXPECT_EQ(per_point[i][p].log_likelihood, direct[p].log_likelihood);
    }
  }
}

// locate.* has one metric site (Locator's non-virtual entry points), so
// the same observations must move its counters identically whether they
// go one by one through try_locate or through the dense quad-kernel and
// pruned batch paths. The latency histogram is sampled by design:
// try_locate times a thread's first call and then one in
// metrics::kSampleEvery, while a batch keeps one timer weighted by its
// size.
TEST(CompiledBatch, LocateMetricsMatchAcrossSingleAndBatchPaths) {
  stats::Rng rng(4407);
  const auto db = random_db(rng, 40, 12);
  const auto compiled = CompiledDatabase::compile(db);
  const ProbabilisticLocator dense(compiled);
  ProbabilisticConfig pruned_config;
  pruned_config.prune_top_k = 8;
  const ProbabilisticLocator pruned(compiled, pruned_config);

  std::vector<Observation> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(random_obs(rng, 12));
  batch.push_back(Observation{});
  std::vector<radio::ScanRecord> rogue(1);
  rogue[0].samples.push_back({"rogue:only", -60.0, 1});
  batch.push_back(Observation::from_scans(rogue));

  metrics::Counter& calls = metrics::counter("locate.calls");
  metrics::Counter& degenerate = metrics::counter("locate.degenerate");
  metrics::HistogramMetric& latency =
      metrics::histogram("locate.latency.seconds");
  struct Delta {
    std::uint64_t calls, degenerate, latency;
  };
  auto measure = [&](auto&& run) {
    const Delta before{calls.value(), degenerate.value(), latency.count()};
    run();
    return Delta{calls.value() - before.calls,
                 degenerate.value() - before.degenerate,
                 latency.count() - before.latency};
  };

  // A fresh thread, so its sampling countdown starts at the first call.
  const Delta single = measure([&] {
    std::thread([&] {
      for (const Observation& obs : batch) (void)dense.try_locate(obs);
    }).join();
  });
  const Delta dense_batch = measure([&] { (void)dense.locate_batch(batch); });
  const Delta pruned_batch =
      measure([&] { (void)pruned.locate_batch(batch); });

  EXPECT_EQ(single.calls, batch.size());
  EXPECT_EQ(single.latency,
            (batch.size() + metrics::kSampleEvery - 1) / metrics::kSampleEvery);
  EXPECT_GE(single.degenerate, 2u);  // the empty and the all-rogue one
  for (const Delta& d : {dense_batch, pruned_batch}) {
    EXPECT_EQ(d.calls, single.calls);
    EXPECT_EQ(d.degenerate, single.degenerate);
    EXPECT_EQ(d.latency, batch.size());
  }
}

// Many clients' windows at once go straight to the locator a
// LocationService serves with; the service adds no batch form of its own.
TEST(CompiledBatch, LocationServiceBatchEntryPoint) {
  const auto db = testing::make_fixture_db();
  const KnnLocator locator(db, KnnConfig{.k = 3});
  std::vector<Observation> batch;
  for (const traindb::TrainingPoint& tp : db.points()) {
    batch.push_back(testing::fixture_observation(tp.position));
  }
  concurrency::ThreadPool pool(4);
  const auto fixes = locator.locate_batch(batch, &pool);
  ASSERT_EQ(fixes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(fixes[i].valid);
    EXPECT_EQ(fixes[i].location_name, db.points()[i].location);
  }
}

// Several locators sharing one compilation must behave identically to
// locators that compiled privately.
TEST(CompiledBatch, SharedCompilationIsEquivalent) {
  const auto db = testing::make_fixture_db();
  const auto shared = CompiledDatabase::compile(db);
  const ProbabilisticLocator a(db), b(shared);
  const KnnLocator ka(db), kb(shared);
  const Observation obs = testing::fixture_observation({17.0, 23.0});
  EXPECT_EQ(a.locate(obs).score, b.locate(obs).score);
  EXPECT_EQ(ka.locate(obs).score, kb.locate(obs).score);
}

}  // namespace
}  // namespace loctk::core

// CompiledDatabase::delta_compile — the oracle gate. Every test
// compares the delta-compiled result against a from-scratch
// compilation of the same merged points via the testkit structural
// diff (bit-exact, pad cells included): replacements in place, appends
// at the end, universe growth re-padding every row to a new stride,
// and universe *shrink* when a replaced point removed a BSSID's last
// occurrence. Randomized corpora sweep the shapes; the concurrent case
// runs under the TSan CI job (delta_compile is const and must be safe
// to call from many threads over one base).

#include "core/compiled_db.hpp"

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/simd.hpp"
#include "radio/access_point.hpp"
#include "testkit/differential.hpp"
#include "test_fixtures.hpp"
#include "traindb/database.hpp"

namespace loctk::core {
namespace {

using loctk::testkit::CompiledDiffReport;
using loctk::testkit::compare_compiled_databases;
using loctk::testing::make_fixture_db;

traindb::ApStatistics ap_stat(std::string bssid, double mean,
                              double stddev = 2.0,
                              std::uint32_t samples = 30) {
  traindb::ApStatistics s;
  s.bssid = std::move(bssid);
  s.mean_dbm = mean;
  s.stddev_db = stddev;
  s.sample_count = samples;
  s.scan_count = samples;
  s.min_dbm = mean - 3.0;
  s.max_dbm = mean + 3.0;
  return s;
}

traindb::TrainingPoint make_point(std::string location, geom::Vec2 pos,
                                  std::vector<traindb::ApStatistics> aps) {
  traindb::TrainingPoint tp;
  tp.location = std::move(location);
  tp.position = pos;
  tp.per_ap = std::move(aps);
  return tp;
}

/// The oracle: merge `delta` into `base` exactly as delta_compile
/// documents (replace in place, append in order, later upsert wins)
/// and compile from scratch.
std::shared_ptr<const CompiledDatabase> oracle_compile(
    const traindb::TrainingDatabase& base, const DatabaseDelta& delta) {
  std::vector<traindb::TrainingPoint> merged = base.points();
  for (const traindb::TrainingPoint& up : delta.upserts) {
    bool replaced = false;
    for (traindb::TrainingPoint& p : merged) {
      if (p.location == up.location) {
        p = up;
        replaced = true;
        break;
      }
    }
    if (!replaced) merged.push_back(up);
  }
  return CompiledDatabase::compile_owned(
      traindb::TrainingDatabase::from_points(std::move(merged),
                                             base.site_name()));
}

void expect_oracle_equal(const traindb::TrainingDatabase& base,
                         const DatabaseDelta& delta) {
  const auto compiled = CompiledDatabase::compile(base);
  const auto got = compiled->delta_compile(delta);
  const auto want = oracle_compile(base, delta);
  const CompiledDiffReport diff = compare_compiled_databases(*got, *want);
  EXPECT_TRUE(diff.ok()) << diff.to_text();
  EXPECT_GT(diff.cells_compared, 0u);
}

TEST(DeltaCompile, EmptyDeltaReproducesBase) {
  const traindb::TrainingDatabase base = make_fixture_db();
  expect_oracle_equal(base, DatabaseDelta{});
}

TEST(DeltaCompile, ReplaceInPlaceKeepsUniverse) {
  const traindb::TrainingDatabase base = make_fixture_db();
  DatabaseDelta delta;
  // Resurvey of an existing point: same APs, shifted means.
  traindb::TrainingPoint tp = base.points()[1];
  for (traindb::ApStatistics& s : tp.per_ap) s.mean_dbm -= 7.0;
  delta.upserts.push_back(std::move(tp));
  expect_oracle_equal(base, delta);
}

TEST(DeltaCompile, AppendGrowsUniverseAndRepads) {
  const traindb::TrainingDatabase base = make_fixture_db();
  const std::size_t old_stride =
      CompiledDatabase::compile(base)->row_stride();
  DatabaseDelta delta;
  // Enough brand-new BSSIDs to force a larger padded stride, so every
  // unchanged row must re-pad under the slot remap.
  std::vector<traindb::ApStatistics> aps;
  for (int i = 0; i < 12; ++i) {
    aps.push_back(ap_stat("ff:ff:00:00:00:0" + std::to_string(i),
                          -60.0 - i));
  }
  delta.upserts.push_back(make_point("annex", {99.0, 99.0}, std::move(aps)));

  const auto compiled = CompiledDatabase::compile(base);
  const auto got = compiled->delta_compile(delta);
  EXPECT_GT(got->row_stride(), old_stride);
  expect_oracle_equal(base, delta);
}

TEST(DeltaCompile, ReplacingLastOccurrenceShrinksUniverse) {
  // Point "solo" is the only one hearing BSSID "zz:..."; replacing it
  // with a version that dropped that AP must remove the slot, exactly
  // as a from-scratch rebuild would.
  std::vector<traindb::TrainingPoint> points;
  points.push_back(make_point(
      "a", {0, 0}, {ap_stat("aa:00:00:00:00:01", -50.0),
                    ap_stat("bb:00:00:00:00:02", -60.0)}));
  points.push_back(make_point(
      "solo", {10, 0}, {ap_stat("bb:00:00:00:00:02", -55.0),
                        ap_stat("zz:00:00:00:00:09", -70.0)}));
  const auto base = traindb::TrainingDatabase::from_points(points, "shrink");

  DatabaseDelta delta;
  delta.upserts.push_back(
      make_point("solo", {10, 0}, {ap_stat("bb:00:00:00:00:02", -58.0)}));

  const auto compiled = CompiledDatabase::compile(base);
  const auto got = compiled->delta_compile(delta);
  EXPECT_EQ(got->universe_size(), 2u);
  EXPECT_FALSE(got->slot_of("zz:00:00:00:00:09").has_value());
  expect_oracle_equal(base, delta);
}

TEST(DeltaCompile, LaterUpsertForSameLocationWins) {
  const traindb::TrainingDatabase base = make_fixture_db();
  DatabaseDelta delta;
  traindb::TrainingPoint first = base.points()[0];
  first.per_ap[0].mean_dbm = -10.0;
  traindb::TrainingPoint second = base.points()[0];
  second.per_ap[0].mean_dbm = -90.0;
  delta.upserts.push_back(std::move(first));
  delta.upserts.push_back(std::move(second));

  const auto got =
      CompiledDatabase::compile(base)->delta_compile(delta);
  EXPECT_EQ(got->database().points()[0].per_ap[0].mean_dbm, -90.0);
  expect_oracle_equal(base, delta);
}

TEST(DeltaCompile, DeltaOntoEmptyDatabaseIsFullCompile) {
  const traindb::TrainingDatabase base;
  DatabaseDelta delta;
  delta.upserts.push_back(make_point(
      "first", {1, 2}, {ap_stat("aa:00:00:00:00:01", -45.0)}));
  expect_oracle_equal(base, delta);
}

TEST(DeltaCompile, ResultIsSelfContained) {
  // The delta result owns its merged database: the base compilation
  // and its source may die first.
  std::shared_ptr<const CompiledDatabase> got;
  {
    const traindb::TrainingDatabase base = make_fixture_db();
    DatabaseDelta delta;
    delta.upserts.push_back(make_point(
        "annex", {99, 99}, {ap_stat("ff:ff:00:00:00:01", -66.0)}));
    got = CompiledDatabase::compile(base)->delta_compile(delta);
  }
  EXPECT_EQ(got->database().find("annex")->per_ap[0].mean_dbm, -66.0);
  EXPECT_TRUE(got->slot_of("ff:ff:00:00:00:01").has_value());
}

/// Randomized corpus: `n_points` points drawing 2..6 APs each from a
/// `pool`-sized BSSID pool, so corpora exercise overlapping rows,
/// varying universe sizes, and stride boundaries.
traindb::TrainingDatabase random_db(std::mt19937& rng, int n_points,
                                    int pool) {
  std::uniform_int_distribution<int> ap_count(2, 6);
  std::uniform_int_distribution<int> which(0, pool - 1);
  std::uniform_real_distribution<double> dbm(-90.0, -40.0);
  std::vector<traindb::TrainingPoint> points;
  for (int p = 0; p < n_points; ++p) {
    std::vector<traindb::ApStatistics> aps;
    std::vector<bool> used(static_cast<std::size_t>(pool), false);
    const int n = ap_count(rng);
    for (int a = 0; a < n; ++a) {
      const int b = which(rng);
      if (used[static_cast<std::size_t>(b)]) continue;
      used[static_cast<std::size_t>(b)] = true;
      char bssid[32];
      std::snprintf(bssid, sizeof(bssid), "%02x:11:22:33:44:55", b);
      aps.push_back(ap_stat(bssid, dbm(rng)));
    }
    points.push_back(make_point("pt" + std::to_string(p),
                                {static_cast<double>(p) * 5.0, 0.0},
                                std::move(aps)));
  }
  return traindb::TrainingDatabase::from_points(std::move(points), "rand");
}

DatabaseDelta random_delta(std::mt19937& rng,
                           const traindb::TrainingDatabase& base,
                           int pool) {
  std::uniform_int_distribution<int> n_ups(1, 5);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_real_distribution<double> dbm(-90.0, -40.0);
  DatabaseDelta delta;
  const int n = n_ups(rng);
  for (int i = 0; i < n; ++i) {
    const bool replace = !base.empty() && coin(rng) == 1;
    std::vector<traindb::ApStatistics> aps;
    std::uniform_int_distribution<int> which(0, pool + 4 - 1);
    std::vector<bool> used(static_cast<std::size_t>(pool + 4), false);
    const int n_aps = 1 + coin(rng) + coin(rng);
    for (int a = 0; a < n_aps; ++a) {
      const int b = which(rng);  // can land outside `pool`: new BSSIDs
      if (used[static_cast<std::size_t>(b)]) continue;
      used[static_cast<std::size_t>(b)] = true;
      char bssid[32];
      std::snprintf(bssid, sizeof(bssid), "%02x:11:22:33:44:55", b);
      aps.push_back(ap_stat(bssid, dbm(rng)));
    }
    std::string location;
    if (replace) {
      std::uniform_int_distribution<std::size_t> idx(0, base.size() - 1);
      location = base.points()[idx(rng)].location;
    } else {
      location = "new" + std::to_string(i);
    }
    delta.upserts.push_back(
        make_point(std::move(location), {1.0 * i, 7.0}, std::move(aps)));
  }
  return delta;
}

TEST(DeltaCompile, RandomizedCorporaMatchOracle) {
  for (std::uint32_t seed = 0; seed < 24; ++seed) {
    std::mt19937 rng(seed * 2654435761u + 1);
    const int pool = 4 + static_cast<int>(seed % 13);
    const traindb::TrainingDatabase base =
        random_db(rng, 3 + static_cast<int>(seed % 9), pool);
    const DatabaseDelta delta = random_delta(rng, base, pool);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_oracle_equal(base, delta);
  }
}

TEST(DeltaCompile, ChainedDeltasMatchOracle) {
  // Lifecycle reality: deltas land on top of deltas. Apply three in
  // sequence, each compared against its own from-scratch oracle.
  std::mt19937 rng(1234);
  const int pool = 10;
  traindb::TrainingDatabase base = random_db(rng, 8, pool);
  auto compiled = CompiledDatabase::compile_owned(base);
  for (int round = 0; round < 3; ++round) {
    const DatabaseDelta delta = random_delta(rng, compiled->database(), pool);
    const auto want = oracle_compile(compiled->database(), delta);
    compiled = compiled->delta_compile(delta);
    const CompiledDiffReport diff =
        compare_compiled_databases(*compiled, *want);
    EXPECT_TRUE(diff.ok()) << "round " << round << "\n" << diff.to_text();
  }
}

TEST(DeltaCompile, ConcurrentDeltasOverOneBaseAreIndependent) {
  // delta_compile is const: many janitors (or a janitor racing a
  // conformance probe) may delta-compile one live snapshot at once.
  // Each thread applies its own delta and checks its own oracle; TSan
  // watches for any shared-state mutation in the base.
  const traindb::TrainingDatabase base = make_fixture_db();
  const auto compiled = CompiledDatabase::compile(base);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t) * 7919u + 3);
      for (int round = 0; round < 8; ++round) {
        const DatabaseDelta delta = random_delta(rng, base, 6);
        const auto got = compiled->delta_compile(delta);
        const auto want = oracle_compile(base, delta);
        if (!compare_compiled_databases(*got, *want).ok()) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << t;
  }
}

TEST(DeltaCompile, RemapsSlotsAcrossAThousandSlotUniverse) {
  // Campus-cardinality audit: the slot remap on grow AND shrink must
  // stay bit-exact when slot indices run past 1000, where any
  // narrow-index or small-table habit in the remap would corrupt
  // rows. Base: 40 points over a 1044-AP universe, each trained on a
  // 30-slot window (windows overlap by 4, so mid-window APs have a
  // single owner).
  std::vector<traindb::TrainingPoint> points(40);
  for (int p = 0; p < 40; ++p) {
    points[p].location = "w" + std::to_string(p);
    points[p].position = {static_cast<double>(p) * 10.0, 0.0};
    for (int a = p * 26; a < p * 26 + 30; ++a) {
      points[p].per_ap.push_back(
          ap_stat(radio::synthetic_bssid(a), -50.0 - (a % 7)));
    }
  }
  const auto base =
      traindb::TrainingDatabase::from_points(points, "wide-universe");
  ASSERT_GT(CompiledDatabase::compile(base)->universe_size(), 1000u);

  // Shrink: resurvey point 20 keeping only its first four APs — its
  // exclusively-owned mid-window slots (524..545) leave the universe,
  // remapping every slot above them.
  DatabaseDelta delta;
  traindb::TrainingPoint resurvey = points[20];
  resurvey.per_ap.resize(4);
  delta.upserts.push_back(std::move(resurvey));
  // Grow: an annex whose BSSIDs sort past the whole synthetic range.
  std::vector<traindb::ApStatistics> annex;
  for (int i = 0; i < 9; ++i) {
    annex.push_back(ap_stat("ff:ff:ff:00:00:0" + std::to_string(i),
                            -64.0 - i));
  }
  delta.upserts.push_back(make_point("annex", {999.0, 0.0}, std::move(annex)));

  expect_oracle_equal(base, delta);
}

TEST(DeltaCompile, CampusSizedCompileMatchesDeltaOfTheSamePoints) {
  // A campus-sized map (240 rows over a 1020-AP universe): both sides
  // fan their row fills out on the default pool into mapped matrices,
  // compile_owned interning every row and delta_compile copying the
  // base rows under its slot remap. Base: the first 120 rooms; the
  // delta appends the other 120, so both sides hold the same points in
  // the same order.
  std::vector<traindb::TrainingPoint> points(240);
  for (std::size_t p = 0; p < points.size(); ++p) {
    points[p].location = "room-" + std::to_string(p);
    points[p].position = {static_cast<double>(p % 40) * 8.0,
                          static_cast<double>(p / 40) * 12.0};
    for (std::size_t a = 0; a < 60; ++a) {
      const std::size_t ap = (p * 17 + a * 3) % 1020;
      points[p].per_ap.push_back(ap_stat(
          radio::synthetic_bssid(static_cast<int>(ap)),
          -40.0 - static_cast<double>((p + ap) % 50),
          1.0 + static_cast<double>(ap % 5), 10 + static_cast<std::uint32_t>(a)));
    }
  }
  const auto full = CompiledDatabase::compile_owned(
      traindb::TrainingDatabase::from_points(points, "campus-sized"));
  ASSERT_EQ(full->universe_size(), 1020u);
  // Past both the inline build and the heap/mapping threshold.
  ASSERT_GE(full->point_count() * full->row_stride(), kInlineBuildCells);
  ASSERT_GE(full->point_count() * full->row_stride() * sizeof(double),
            simd::ZeroedDoubles::kMapThresholdBytes);

  const std::vector<traindb::TrainingPoint> first(points.begin(),
                                                  points.begin() + 120);
  DatabaseDelta delta;
  delta.upserts.assign(points.begin() + 120, points.end());
  const auto base = CompiledDatabase::compile_owned(
      traindb::TrainingDatabase::from_points(first, "campus-sized"));
  const auto merged = base->delta_compile(delta);
  const CompiledDiffReport diff = compare_compiled_databases(*merged, *full);
  EXPECT_TRUE(diff.ok()) << diff.to_text();
  // Every cell of the four matrices.
  EXPECT_EQ(diff.cells_compared, 4 * full->point_count() * full->row_stride());
}

}  // namespace
}  // namespace loctk::core

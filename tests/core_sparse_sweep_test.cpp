// Property tests for the probabilistic locator's exact sparse sweep.
//
// locate() walks only the <row, AP> cells an observation heard, yet it
// must equal the dense arg-max bit for bit: the first strict arg-max of
// score_all(), compared on the bits of the score, the location, and
// aps_used. The corpora run from campus-like ~5% fill to fully dense
// rows, at row strides of 8 and above 1024, with untrained rows and
// duplicate rows so ties occur. Hostile inputs exercise the two guards
// that route a query to the dense sweep: non-finite unheard terms at
// construction (sigma floor 0 with zero-sd cells, trained means of
// ±1e200) and observed means whose square is non-finite (±1e200, NaN
// passed straight to locate(Observation)). locate_batch() must equal
// locate() per element on both sides of its fill-based path choice.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/thread_pool.hpp"
#include "core/probabilistic.hpp"
#include "radio/access_point.hpp"
#include "stats/rng.hpp"

namespace loctk::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits 0x" << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs 0x"
         << std::bit_cast<std::uint64_t>(b) << ")";
}

void expect_same(const LocationEstimate& got, const LocationEstimate& want,
                 const std::string& where) {
  ASSERT_EQ(got.valid, want.valid) << where;
  if (!want.valid) return;
  EXPECT_EQ(got.location_name, want.location_name) << where;
  EXPECT_TRUE(bits_equal(got.position.x, want.position.x)) << where;
  EXPECT_TRUE(bits_equal(got.position.y, want.position.y)) << where;
  EXPECT_TRUE(bits_equal(got.score, want.score)) << where;
  EXPECT_EQ(got.aps_used, want.aps_used) << where;
}

/// The dense reference: the first strict arg-max of score_all().
LocationEstimate first_strict_argmax(const ProbabilisticLocator& locator,
                                     const Observation& obs) {
  LocationEstimate est;
  if (obs.empty()) return est;  // locate() refuses before scoring
  const std::vector<ScoredPoint> scores = locator.score_all(obs);
  const ScoredPoint* best = nullptr;
  for (const ScoredPoint& sp : scores) {
    if (best == nullptr || sp.log_likelihood > best->log_likelihood) {
      best = &sp;
    }
  }
  if (best == nullptr ||
      best->log_likelihood == -std::numeric_limits<double>::infinity()) {
    return est;
  }
  est.valid = true;
  est.position = best->point->position;
  est.location_name = best->point->location;
  est.score = best->log_likelihood;
  est.aps_used = best->common_aps;
  return est;
}

struct CorpusSpec {
  int points;
  int universe;
  double fill;
  /// Trained means set to ±1e200 at this rate.
  double huge_mean_rate = 0.0;
};

/// Row p trains each AP with probability `fill`; every 7th row trains
/// nothing, and every 5th row copies the previous row's APs so its
/// scores tie. Zero-sd cells occur throughout.
traindb::TrainingDatabase make_corpus(stats::Rng& rng, const CorpusSpec& c) {
  std::vector<traindb::TrainingPoint> rows(
      static_cast<std::size_t>(c.points));
  for (int p = 0; p < c.points; ++p) {
    traindb::TrainingPoint& tp = rows[static_cast<std::size_t>(p)];
    tp.location = "r" + std::to_string(p);
    tp.position = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 200.0)};
    if (p % 7 == 6) continue;
    if (p % 5 == 4) {
      tp.per_ap = rows[static_cast<std::size_t>(p - 1)].per_ap;
      continue;
    }
    for (int a = 0; a < c.universe; ++a) {
      if (!rng.bernoulli(c.fill)) continue;
      traindb::ApStatistics s;
      s.bssid = radio::synthetic_bssid(a);
      s.mean_dbm = rng.uniform(-95.0, -30.0);
      if (rng.bernoulli(c.huge_mean_rate)) {
        s.mean_dbm = rng.bernoulli(0.5) ? 1e200 : -1e200;
      }
      s.stddev_db = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.5, 6.0);
      s.sample_count = static_cast<std::uint32_t>(rng.uniform_int(1, 60));
      s.scan_count = 60;
      tp.per_ap.push_back(std::move(s));
    }
  }
  return traindb::TrainingDatabase::from_points(std::move(rows), "sweep");
}

/// Hears `count` random APs, some outside the trained universe, each
/// from 1-3 readings; a third of the readings become one of `poison`
/// when it is not empty.
Observation make_observation(stats::Rng& rng, int universe, int count,
                             const std::vector<double>& poison = {}) {
  std::vector<radio::ScanRecord> scans(1);
  for (int k = 0; k < count; ++k) {
    const int ap = static_cast<int>(rng.uniform_int(0, universe + 3));
    const int readings = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < readings; ++r) {
      double dbm = rng.uniform(-100.0, -25.0);
      if (!poison.empty() && rng.bernoulli(0.3)) {
        dbm = poison[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(poison.size()) - 1))];
      }
      scans[0].samples.push_back({radio::synthetic_bssid(ap), dbm, 1});
    }
  }
  return Observation::from_scans(scans);
}

/// Observations that hit every branch: random ones (when `hostile`,
/// some carry ±1e200 readings, NaN readings, or both), one that
/// repeats a training row's means exactly (ties with its duplicate),
/// one heard only outside the universe, and an empty one.
std::vector<Observation> make_observations(
    stats::Rng& rng, const traindb::TrainingDatabase& db, int universe,
    bool hostile) {
  const std::vector<std::vector<double>> poisons = {
      {1e200}, {}, {-1e200}, {}, {kNaN}, {}, {1e200, kNaN}, {}, {}};
  std::vector<Observation> out;
  const int heard = std::max(2, universe / 10);
  for (const std::vector<double>& poison : poisons) {
    out.push_back(make_observation(rng, universe, heard,
                                   hostile ? poison : std::vector<double>{}));
  }
  for (const traindb::TrainingPoint& tp : db.points()) {
    if (tp.per_ap.empty()) continue;
    std::vector<radio::ScanRecord> scans(1);
    for (const traindb::ApStatistics& s : tp.per_ap) {
      scans[0].samples.push_back({s.bssid, s.mean_dbm, 1});
    }
    out.push_back(Observation::from_scans(scans));
    break;
  }
  std::vector<radio::ScanRecord> rogue(1);
  rogue[0].samples.push_back({"rogue:only", -60.0, 1});
  out.push_back(Observation::from_scans(rogue));
  out.push_back(Observation{});
  return out;
}

bool sparse_fill(const CompiledDatabase& compiled) {
  std::size_t trained = 0;
  for (std::size_t p = 0; p < compiled.point_count(); ++p) {
    trained += static_cast<std::size_t>(compiled.trained_count(p));
  }
  return trained * 4 < compiled.point_count() * compiled.row_stride();
}

void check_locator(const ProbabilisticLocator& locator,
                   const std::vector<Observation>& observations,
                   const std::string& where) {
  for (std::size_t i = 0; i < observations.size(); ++i) {
    expect_same(locator.locate(observations[i]),
                first_strict_argmax(locator, observations[i]),
                where + " obs " + std::to_string(i));
  }
  concurrency::ThreadPool pool(2);
  for (concurrency::ThreadPool* p : {static_cast<concurrency::ThreadPool*>(
                                         nullptr),
                                     &pool}) {
    const std::vector<LocationEstimate> batch =
        locator.locate_batch(observations, p);
    ASSERT_EQ(batch.size(), observations.size());
    for (std::size_t i = 0; i < observations.size(); ++i) {
      expect_same(batch[i], locator.locate(observations[i]),
                  where + " batch obs " + std::to_string(i) +
                      (p ? " (pool)" : ""));
    }
  }
}

std::vector<ProbabilisticConfig> configs(double sigma_floor_db) {
  std::vector<ProbabilisticConfig> out;
  for (const int min_common : {0, 1, 3}) {
    for (const bool pooled : {false, true}) {
      ProbabilisticConfig c;
      c.min_common_aps = min_common;
      c.use_pooled_sigma = pooled;
      c.sigma_floor_db = sigma_floor_db;
      out.push_back(c);
    }
  }
  return out;
}

std::string describe(const CorpusSpec& c, const ProbabilisticConfig& cfg) {
  return "points " + std::to_string(c.points) + " universe " +
         std::to_string(c.universe) + " fill " + std::to_string(c.fill) +
         " min_common " + std::to_string(cfg.min_common_aps) +
         (cfg.use_pooled_sigma ? " pooled" : " per-point") + " floor " +
         std::to_string(cfg.sigma_floor_db);
}

TEST(SparseSweep, MatchesDenseArgmaxAcrossFillsAndStrides) {
  stats::Rng rng(13013);
  const CorpusSpec corpora[] = {
      {.points = 60, .universe = 1400, .fill = 0.05},
      {.points = 40, .universe = 1030, .fill = 0.3},
      {.points = 24, .universe = 1030, .fill = 1.0},
      {.points = 50, .universe = 6, .fill = 0.05},
      {.points = 50, .universe = 6, .fill = 0.5},
      {.points = 50, .universe = 6, .fill = 1.0},
  };
  bool saw_sparse = false, saw_dense = false;
  for (const CorpusSpec& c : corpora) {
    const auto db = make_corpus(rng, c);
    const auto compiled = CompiledDatabase::compile(db);
    if (c.universe > 1024) {
      EXPECT_GT(compiled->row_stride(), 1024u);
    } else {
      EXPECT_EQ(compiled->row_stride(), 8u);
    }
    (sparse_fill(*compiled) ? saw_sparse : saw_dense) = true;
    const auto observations = make_observations(rng, db, c.universe, false);
    for (const ProbabilisticConfig& cfg : configs(1.0)) {
      check_locator(ProbabilisticLocator(compiled, cfg), observations,
                    describe(c, cfg));
    }
  }
  // Both sides of locate_batch's fill-based choice ran.
  EXPECT_TRUE(saw_sparse);
  EXPECT_TRUE(saw_dense);
}

TEST(SparseSweep, HostileInputsTakeTheGuardsAndStayExact) {
  stats::Rng rng(13014);
  const CorpusSpec corpora[] = {
      {.points = 60, .universe = 1400, .fill = 0.05},
      {.points = 50, .universe = 6, .fill = 0.5},
      {.points = 50, .universe = 6, .fill = 1.0},
      // Trained means of ±1e200: the construction guard.
      {.points = 60, .universe = 1400, .fill = 0.05, .huge_mean_rate = 0.02},
      {.points = 50, .universe = 6, .fill = 1.0, .huge_mean_rate = 0.05},
  };
  for (const CorpusSpec& c : corpora) {
    const auto db = make_corpus(rng, c);
    const auto compiled = CompiledDatabase::compile(db);
    // Observed ±1e200 and NaN: the per-query guard.
    const auto observations = make_observations(rng, db, c.universe, true);
    // Sigma floor 0 with zero-sd cells: the construction guard again.
    for (const double floor : {1.0, 0.0}) {
      for (const ProbabilisticConfig& cfg : configs(floor)) {
        check_locator(ProbabilisticLocator(compiled, cfg), observations,
                      describe(c, cfg));
      }
    }
  }
}

// A non-finite penalty makes every score NaN: the first row then wins
// on every path, the quad kernel's lanes included.
TEST(SparseSweep, NanScoresKeepTheFirstRowOnEveryPath) {
  stats::Rng rng(13016);
  for (const CorpusSpec& c : {CorpusSpec{.points = 60, .universe = 1400,
                                         .fill = 0.05},
                              CorpusSpec{.points = 50, .universe = 6,
                                         .fill = 1.0}}) {
    const auto db = make_corpus(rng, c);
    const auto compiled = CompiledDatabase::compile(db);
    ProbabilisticConfig cfg;
    cfg.min_common_aps = 0;
    cfg.missing_ap_log_penalty = kNaN;
    const ProbabilisticLocator locator(compiled, cfg);
    const auto observations = make_observations(rng, db, c.universe, false);
    const LocationEstimate first = locator.locate(observations.front());
    ASSERT_TRUE(first.valid);
    EXPECT_EQ(first.location_name, db.points().front().location);
    EXPECT_TRUE(std::isnan(first.score));
    check_locator(locator, observations, describe(c, cfg));
  }
}

// The retired pruning knobs leave locate() untouched.
TEST(SparseSweep, PruneKnobsDoNotChangeLocate) {
  stats::Rng rng(13015);
  const CorpusSpec c{.points = 80, .universe = 1400, .fill = 0.05};
  const auto db = make_corpus(rng, c);
  const auto compiled = CompiledDatabase::compile(db);
  const ProbabilisticLocator exact(compiled);
  ProbabilisticConfig pruned_cfg;
  pruned_cfg.prune_top_k = 1;
  pruned_cfg.prune_strongest_aps = 1;
  const ProbabilisticLocator pruned(compiled, pruned_cfg);
  for (const Observation& obs : make_observations(rng, db, c.universe, false)) {
    expect_same(pruned.locate(obs), exact.locate(obs), "pruned knobs");
  }
}

}  // namespace
}  // namespace loctk::core

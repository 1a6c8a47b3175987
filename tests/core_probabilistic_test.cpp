// Unit tests for the paper's §5.1 probabilistic maximum-likelihood
// locator.

#include "core/probabilistic.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "testkit/locator_reference.hpp"

namespace loctk::core {
namespace {

using testing::fixture_observation;
using testing::make_fixture_db;

TEST(Probabilistic, ExactObservationAtTrainingPointWins) {
  const auto db = make_fixture_db();
  const ProbabilisticLocator locator(db);
  for (const traindb::TrainingPoint& tp : db.points()) {
    const LocationEstimate est =
        locator.locate(fixture_observation(tp.position));
    ASSERT_TRUE(est.valid);
    EXPECT_EQ(est.location_name, tp.location) << tp.location;
    EXPECT_EQ(est.position, tp.position);
    EXPECT_EQ(est.aps_used, 4);
  }
}

TEST(Probabilistic, OffGridObservationSnapsToNearestCell) {
  const auto db = make_fixture_db();
  const ProbabilisticLocator locator(db);
  // 2 ft from the (10, 10) training point.
  const LocationEstimate est =
      locator.locate(fixture_observation({11.0, 11.5}));
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.location_name, "g10-10");
}

TEST(Probabilistic, LogLikelihoodMatchesPaperFormula) {
  const auto db = make_fixture_db(10.0, 2.0);
  ProbabilisticConfig cfg;
  cfg.sigma_floor_db = 0.5;
  const ProbabilisticLocator locator(db, cfg);
  const traindb::TrainingPoint& tp = db.points().front();

  const Observation obs = fixture_observation(tp.position, 1.0);
  int common = 0;
  const double ll =
      testkit::reference_log_likelihood(locator, obs, tp, &common);
  EXPECT_EQ(common, 4);

  // Hand-computed: each AP is off by exactly 1 dB with sigma 2.
  double expected = 0.0;
  for (int a = 0; a < 4; ++a) {
    expected += stats::Gaussian{0.0, 2.0}.log_pdf(1.0);
  }
  EXPECT_NEAR(ll, expected, 1e-9);
}

TEST(Probabilistic, ScoreAllOrderedAndArgmaxConsistent) {
  const auto db = make_fixture_db();
  const ProbabilisticLocator locator(db);
  const Observation obs = fixture_observation({20.0, 20.0});
  const auto scores = locator.score_all(obs);
  ASSERT_EQ(scores.size(), db.size());
  double best = -std::numeric_limits<double>::infinity();
  const traindb::TrainingPoint* best_point = nullptr;
  for (const ScoredPoint& sp : scores) {
    if (sp.log_likelihood > best) {
      best = sp.log_likelihood;
      best_point = sp.point;
    }
  }
  const LocationEstimate est = locator.locate(obs);
  ASSERT_NE(best_point, nullptr);
  EXPECT_EQ(est.location_name, best_point->location);
  EXPECT_DOUBLE_EQ(est.score, best);
}

TEST(Probabilistic, MissingApPenaltyAppliedSymmetrically) {
  const auto db = make_fixture_db();
  ProbabilisticConfig cfg;
  cfg.missing_ap_log_penalty = -8.0;
  const ProbabilisticLocator locator(db, cfg);
  const traindb::TrainingPoint& tp = db.points().front();

  // Observation missing one trained AP.
  std::vector<radio::ScanRecord> scans(1);
  for (std::size_t a = 0; a < 3; ++a) {  // drop ap 3
    scans[0].samples.push_back(
        {testing::fixture_bssids()[a],
         testing::fixture_mean_rssi(a, tp.position), 1});
  }
  const Observation partial = Observation::from_scans(scans);
  const Observation full = fixture_observation(tp.position);
  const double ll_partial =
      testkit::reference_log_likelihood(locator, partial, tp);
  const double ll_full = testkit::reference_log_likelihood(locator, full, tp);
  // Full observation replaces the -8 penalty with log_pdf(0) < 0.
  const double perfect_term = stats::Gaussian{0.0, 2.0}.log_pdf(0.0);
  EXPECT_NEAR(ll_full - ll_partial, perfect_term - (-8.0), 1e-9);

  // Observation with an extra never-trained AP gets penalized too.
  scans[0].samples.push_back({"rogue", -60.0, 1});
  const Observation with_rogue = Observation::from_scans(scans);
  EXPECT_NEAR(testkit::reference_log_likelihood(locator, with_rogue, tp),
              ll_partial - 8.0, 1e-9);
}

TEST(Probabilistic, EmptyInputsInvalid) {
  const auto db = make_fixture_db();
  const ProbabilisticLocator locator(db);
  EXPECT_FALSE(locator.locate(Observation{}).valid);

  traindb::TrainingDatabase empty;
  const ProbabilisticLocator empty_locator(empty);
  EXPECT_FALSE(
      empty_locator.locate(fixture_observation({5.0, 5.0})).valid);
}

TEST(Probabilistic, MinCommonApsVetoes) {
  const auto db = make_fixture_db();
  ProbabilisticConfig cfg;
  cfg.min_common_aps = 2;
  const ProbabilisticLocator locator(db, cfg);
  std::vector<radio::ScanRecord> scans(1);
  scans[0].samples.push_back(
      {testing::fixture_bssids()[0], -50.0, 1});  // only one AP heard
  EXPECT_FALSE(locator.locate(Observation::from_scans(scans)).valid);
}

TEST(Probabilistic, SigmaFloorPreventsDeltaVeto) {
  // A training point with sigma 0 must not produce -inf for a nearby
  // observation.
  auto db = make_fixture_db(20.0, 0.0);  // zero sigma everywhere
  ProbabilisticConfig cfg;
  cfg.sigma_floor_db = 1.0;
  const ProbabilisticLocator locator(db, cfg);
  const LocationEstimate est =
      locator.locate(fixture_observation({1.0, 1.0}));
  EXPECT_TRUE(est.valid);
  EXPECT_TRUE(std::isfinite(est.score));
}

TEST(Probabilistic, PooledSigmaIsWeightedRms) {
  // Fixture database has sigma 2.0 everywhere -> pooled sigma 2.0.
  const auto db = make_fixture_db(10.0, 2.0);
  const ProbabilisticLocator locator(db);
  for (const std::string& bssid : testing::fixture_bssids()) {
    EXPECT_NEAR(locator.pooled_sigma_db(bssid), 2.0, 1e-12) << bssid;
  }
  EXPECT_DOUBLE_EQ(locator.pooled_sigma_db("unknown"),
                   locator.config().sigma_floor_db);
}

TEST(Probabilistic, PooledSigmaRemovesLogSigmaBias) {
  // Two training points with identical means but very different
  // per-point sigmas; the observation sits exactly on both means.
  traindb::TrainingDatabase db;
  for (int i = 0; i < 2; ++i) {
    traindb::TrainingPoint p;
    p.location = i == 0 ? "calm" : "noisy";
    p.position = {i * 10.0, 0.0};
    traindb::ApStatistics s;
    s.bssid = "ap";
    s.mean_dbm = -60.0;
    s.stddev_db = i == 0 ? 1.0 : 6.0;
    s.sample_count = 90;
    s.scan_count = 90;
    p.per_ap.push_back(s);
    db.add_point(std::move(p));
  }
  std::vector<radio::ScanRecord> scans(1);
  scans[0].samples.push_back({"ap", -60.0, 1});
  const Observation obs = Observation::from_scans(scans);

  // Per-point sigma: the calm point wins on the -log(sigma) term.
  const ProbabilisticLocator per_point(db);
  const auto scores_pp = per_point.score_all(obs);
  EXPECT_GT(scores_pp[0].log_likelihood, scores_pp[1].log_likelihood);

  // Pooled sigma: both points score identically (tie).
  ProbabilisticConfig pooled_cfg;
  pooled_cfg.use_pooled_sigma = true;
  const ProbabilisticLocator pooled(db, pooled_cfg);
  const auto scores_pool = pooled.score_all(obs);
  EXPECT_NEAR(scores_pool[0].log_likelihood, scores_pool[1].log_likelihood,
              1e-12);
}

TEST(Probabilistic, PooledModeStillLocates) {
  const auto db = make_fixture_db();
  ProbabilisticConfig cfg;
  cfg.use_pooled_sigma = true;
  const ProbabilisticLocator locator(db, cfg);
  for (const std::size_t idx : {0u, 6u, 12u}) {
    const traindb::TrainingPoint& tp = db.points()[idx];
    const LocationEstimate est =
        locator.locate(fixture_observation(tp.position));
    ASSERT_TRUE(est.valid);
    EXPECT_EQ(est.location_name, tp.location);
  }
}

// Property sweep: for observations taken exactly at each grid node of
// a finer query lattice, the winning cell is always the nearest
// training point (noiseless observations, symmetric model).
class SnapSweep : public ::testing::TestWithParam<int> {};

TEST_P(SnapSweep, WinnerIsNearestTrainingPoint) {
  const int i = GetParam();
  const auto db = make_fixture_db();
  const ProbabilisticLocator locator(db);
  // Lattice chosen to avoid exact cell boundaries (x, y never ~5 mod 10).
  const geom::Vec2 query{3.0 + (i % 5) * 7.0, 2.0 + (i / 5) * 9.0};
  const LocationEstimate est = locator.locate(fixture_observation(query));
  ASSERT_TRUE(est.valid);
  // Signal space is a warped copy of physical space (dB scales are
  // nonlinear near APs), so the winner is not always the physically
  // nearest cell — but it must be within one survey cell of it.
  const traindb::TrainingPoint* oracle = db.nearest_point(query);
  EXPECT_LE(geom::distance(est.position, oracle->position), 10.0 + 1e-9)
      << "query " << query.x << "," << query.y;
}

INSTANTIATE_TEST_SUITE_P(QueryLattice, SnapSweep, ::testing::Range(0, 25));

}  // namespace
}  // namespace loctk::core

// Unit tests for the NNSS/k-NN baselines and the Bayesian grid
// locator (posterior over training points).

#include "core/bayes.hpp"
#include "core/histogram_locator.hpp"
#include "core/knn.hpp"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "test_fixtures.hpp"
#include "testkit/locator_reference.hpp"

namespace loctk::core {
namespace {

using testing::fixture_observation;
using testing::make_fixture_db;

TEST(Knn, K1MatchesNearestSignature) {
  const auto db = make_fixture_db();
  const KnnLocator nnss(db, {.k = 1});
  EXPECT_EQ(nnss.name(), "nnss");
  for (const traindb::TrainingPoint& tp : db.points()) {
    const LocationEstimate est =
        nnss.locate(fixture_observation(tp.position));
    ASSERT_TRUE(est.valid);
    EXPECT_EQ(est.location_name, tp.location);
    EXPECT_EQ(est.position, tp.position);
  }
}

TEST(Knn, SignalDistanceZeroAtOwnPoint) {
  const auto db = make_fixture_db();
  const KnnLocator nnss(db);
  const traindb::TrainingPoint& tp = db.points().front();
  EXPECT_NEAR(testkit::reference_signal_distance(
                  db, nnss.config(), fixture_observation(tp.position), tp),
              0.0, 1e-9);
  EXPECT_GT(testkit::reference_signal_distance(
                db, nnss.config(), fixture_observation({40.0, 40.0}), tp),
            5.0);
}

TEST(Knn, K3InterpolatesBetweenCells) {
  const auto db = make_fixture_db();
  const KnnLocator knn(db, {.k = 3});
  EXPECT_EQ(knn.name(), "knn-3");
  // Query between training points: the weighted estimate should land
  // off-grid, strictly inside the hull of its neighbors.
  const geom::Vec2 query{15.0, 10.0};
  const LocationEstimate est = knn.locate(fixture_observation(query));
  ASSERT_TRUE(est.valid);
  EXPECT_LT(geom::distance(est.position, query), 10.0);
  // Not snapped exactly to any training point.
  bool on_grid = false;
  for (const auto& tp : db.points()) {
    if (tp.position == est.position) on_grid = true;
  }
  EXPECT_FALSE(on_grid);
}

TEST(Knn, UniformWeightingIsCentroid) {
  const auto db = make_fixture_db();
  KnnConfig cfg;
  cfg.k = 2;
  cfg.inverse_distance_weighting = false;
  const KnnLocator knn(db, cfg);
  const LocationEstimate est =
      knn.locate(fixture_observation({15.0, 10.0}));
  ASSERT_TRUE(est.valid);
  // Two nearest cells are (10,10) and (20,10); centroid x = 15.
  EXPECT_NEAR(est.position.x, 15.0, 1e-9);
  EXPECT_NEAR(est.position.y, 10.0, 1e-9);
}

TEST(Knn, KLargerThanDatabaseClamps) {
  const auto db = make_fixture_db(20.0);  // 3x3 grid
  const KnnLocator knn(db, {.k = 100});
  const LocationEstimate est =
      knn.locate(fixture_observation({20.0, 20.0}));
  EXPECT_TRUE(est.valid);
}

TEST(Knn, EmptyInputsInvalid) {
  const auto db = make_fixture_db();
  const KnnLocator knn(db);
  EXPECT_FALSE(knn.locate(Observation{}).valid);
  traindb::TrainingDatabase empty;
  const KnnLocator on_empty(empty);
  EXPECT_FALSE(on_empty.locate(fixture_observation({1, 1})).valid);
}

TEST(Bayes, PosteriorNormalizedAndPeaked) {
  const auto db = make_fixture_db();
  const BayesGridLocator bayes(db);
  const traindb::TrainingPoint& tp = db.points()[7];
  const Posterior post = bayes.posterior(fixture_observation(tp.position));
  ASSERT_EQ(post.probabilities.size(), db.size());
  const double total = std::accumulate(post.probabilities.begin(),
                                       post.probabilities.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(db.points()[post.map_index].location, tp.location);
  // Peaked: MAP mass dominates.
  EXPECT_GT(post.probabilities[post.map_index], 0.5);
  EXPECT_LT(post.entropy, std::log(static_cast<double>(db.size())));
}

TEST(Bayes, PosteriorMeanBetweenCellsForAmbiguousObservation) {
  const auto db = make_fixture_db();
  const BayesGridLocator bayes(db);
  // Halfway between (10,10) and (20,10): posterior mean should sit
  // near x=15 rather than snapping.
  const Posterior post =
      bayes.posterior(fixture_observation({15.0, 10.0}));
  EXPECT_NEAR(post.mean_position.x, 15.0, 3.0);
  EXPECT_NEAR(post.mean_position.y, 10.0, 3.0);
}

TEST(Bayes, PriorShiftsPosterior) {
  const auto db = make_fixture_db();
  const BayesGridLocator bayes(db);
  const Observation obs = fixture_observation({15.0, 10.0});
  // Uniform prior: roughly split between the two nearest cells.
  const Posterior flat = bayes.posterior(obs);
  // Prior heavily favoring (20,10).
  std::vector<double> prior(db.size(), 1e-6);
  for (std::size_t i = 0; i < db.size(); ++i) {
    if (db.points()[i].location == "g20-10") prior[i] = 1.0;
  }
  const Posterior skewed = bayes.posterior(obs, prior);
  EXPECT_EQ(db.points()[skewed.map_index].location, "g20-10");
  EXPECT_GT(skewed.mean_position.x, flat.mean_position.x - 1e-9);
}

TEST(Bayes, LocateUsesPosteriorMeanByDefault) {
  const auto db = make_fixture_db();
  const BayesGridLocator mean_locator(db);
  BayesConfig map_cfg;
  map_cfg.use_posterior_mean = false;
  const BayesGridLocator map_locator(db, map_cfg);

  const Observation obs = fixture_observation({15.0, 10.0});
  const LocationEstimate mean_est = mean_locator.locate(obs);
  const LocationEstimate map_est = map_locator.locate(obs);
  ASSERT_TRUE(mean_est.valid);
  ASSERT_TRUE(map_est.valid);
  // MAP answer is a training point; mean answer generally is not.
  bool map_on_grid = false;
  for (const auto& tp : db.points()) {
    if (tp.position == map_est.position) map_on_grid = true;
  }
  EXPECT_TRUE(map_on_grid);
  EXPECT_EQ(mean_est.location_name, map_est.location_name);
}

TEST(Bayes, EmptyObservationInvalid) {
  const auto db = make_fixture_db();
  const BayesGridLocator bayes(db);
  EXPECT_FALSE(bayes.locate(Observation{}).valid);
}

TEST(HistogramLocator, RequiresSamples) {
  const auto no_samples = make_fixture_db();
  EXPECT_THROW(HistogramLocator{no_samples}, traindb::DatabaseError);
}

TEST(HistogramLocator, LocatesWithRetainedSamples) {
  const auto db = make_fixture_db(10.0, 2.0, /*keep_samples=*/true);
  const HistogramLocator locator(db);
  EXPECT_EQ(locator.name(), "histogram");
  for (const std::size_t idx : {0u, 7u, 12u}) {
    const traindb::TrainingPoint& tp = db.points()[idx];
    const LocationEstimate est =
        locator.locate(fixture_observation(tp.position));
    ASSERT_TRUE(est.valid);
    // Histogram bins are 2 dB wide, so adjacent cells whose means
    // differ by ~1 dB can tie; require at most one cell of error.
    EXPECT_LE(geom::distance(est.position, tp.position), 10.0)
        << tp.location;
  }
}

TEST(HistogramLocator, EmptyObservationInvalid) {
  const auto db = make_fixture_db(10.0, 2.0, true);
  const HistogramLocator locator(db);
  EXPECT_FALSE(locator.locate(Observation{}).valid);
}

}  // namespace
}  // namespace loctk::core

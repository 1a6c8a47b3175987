// Unit tests for SSD (difference) fingerprinting and the device-
// offset channel knob it exists to defeat.

#include "core/ssd_locator.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "core/knn.hpp"
#include "test_fixtures.hpp"
#include "testkit/locator_reference.hpp"

namespace loctk::core {
namespace {

using testing::fixture_bssids;
using testing::fixture_mean_rssi;
using testing::fixture_observation;
using testing::make_fixture_db;

TEST(Ssd, DistanceIsOffsetInvariant) {
  const auto db = make_fixture_db();
  const SsdLocator ssd(db);
  const traindb::TrainingPoint& tp = db.points()[5];
  const Observation plain = fixture_observation({17.0, 23.0});
  const Observation shifted = fixture_observation({17.0, 23.0}, +7.5);
  EXPECT_NEAR(testkit::reference_ssd_distance(ssd.config(), plain, tp),
              testkit::reference_ssd_distance(ssd.config(), shifted, tp),
              1e-9);
}

TEST(Ssd, LocatesAtTrainingPointsRegardlessOfOffset) {
  const auto db = make_fixture_db();
  const SsdLocator ssd(db, {.k = 1});
  EXPECT_EQ(ssd.name(), "ssd-knn-1");
  for (const double offset : {0.0, -6.0, +9.0}) {
    for (const std::size_t idx : {0u, 7u, 12u}) {
      const traindb::TrainingPoint& tp = db.points()[idx];
      const LocationEstimate est =
          ssd.locate(fixture_observation(tp.position, offset));
      ASSERT_TRUE(est.valid) << offset;
      EXPECT_EQ(est.location_name, tp.location)
          << "offset " << offset;
    }
  }
}

TEST(Ssd, OffsetInflatesAbsoluteDistanceNotSsd) {
  // A uniform +10 dB offset moves the observation 10*sqrt(4) = 20 dB
  // away from the true cell in absolute signal space, while the SSD
  // distance to the true cell stays exactly zero. (Whether absolute
  // k-NN actually mislocates depends on the cell layout — the
  // *margin* it decides by is what provably shrinks.)
  const auto db = make_fixture_db();
  const KnnLocator knn(db, {.k = 1});
  const SsdLocator ssd(db, {.k = 1});
  const traindb::TrainingPoint& tp = *db.find("g20-20");
  const Observation plain = fixture_observation(tp.position);
  const Observation shifted = fixture_observation(tp.position, +10.0);

  EXPECT_NEAR(testkit::reference_signal_distance(db, knn.config(), plain, tp),
              0.0, 1e-9);
  EXPECT_NEAR(
      testkit::reference_signal_distance(db, knn.config(), shifted, tp),
      20.0, 1e-9);
  EXPECT_NEAR(testkit::reference_ssd_distance(ssd.config(), shifted, tp), 0.0,
              1e-9);
  // And SSD still answers the right cell under the offset.
  const LocationEstimate est = ssd.locate(shifted);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.location_name, tp.location);
}

TEST(Ssd, MinCommonApsVetoes) {
  const auto db = make_fixture_db();
  SsdConfig cfg;
  cfg.min_common_aps = 3;
  const SsdLocator ssd(db, cfg);
  std::vector<radio::ScanRecord> scans(1);
  scans[0].samples.push_back({fixture_bssids()[0], -50.0, 1});
  scans[0].samples.push_back({fixture_bssids()[1], -60.0, 1});
  EXPECT_FALSE(ssd.locate(Observation::from_scans(scans)).valid);
}

TEST(Ssd, EmptyInputsInvalid) {
  const auto db = make_fixture_db();
  const SsdLocator ssd(db);
  EXPECT_FALSE(ssd.locate(Observation{}).valid);
  traindb::TrainingDatabase empty;
  const SsdLocator on_empty(empty);
  EXPECT_FALSE(on_empty.locate(fixture_observation({5, 5})).valid);
}

TEST(Ssd, InterpolatesLikeKnn) {
  const auto db = make_fixture_db();
  const SsdLocator ssd(db, {.k = 3});
  const geom::Vec2 truth{15.0, 10.0};
  const LocationEstimate est = ssd.locate(fixture_observation(truth));
  ASSERT_TRUE(est.valid);
  EXPECT_LT(geom::distance(est.position, truth), 8.0);
}

// Property sweep: SSD estimates identical across a range of offsets.
class OffsetSweep : public ::testing::TestWithParam<double> {};

TEST_P(OffsetSweep, EstimateIndependentOfOffset) {
  const double offset = GetParam();
  const auto db = make_fixture_db();
  const SsdLocator ssd(db);
  const geom::Vec2 truth{23.0, 31.0};
  const LocationEstimate base = ssd.locate(fixture_observation(truth));
  const LocationEstimate off =
      ssd.locate(fixture_observation(truth, offset));
  ASSERT_TRUE(base.valid);
  ASSERT_TRUE(off.valid);
  EXPECT_TRUE(geom::almost_equal(base.position, off.position, 1e-9));
  EXPECT_EQ(base.location_name, off.location_name);
}

INSTANTIATE_TEST_SUITE_P(Offsets, OffsetSweep,
                         ::testing::Values(-12.0, -5.0, -1.0, 0.0, 2.5,
                                           6.0, 15.0));

}  // namespace
}  // namespace loctk::core

// Unit tests for the FAB-MAP-style place-recognition locator:
// detection-set arg-max, device-offset invariance, the co-occurrence
// evidence discount, and compiled-vs-reference score agreement.

#include "core/place_recognition.hpp"

#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "radio/scanner.hpp"
#include "testkit/locator_reference.hpp"

namespace loctk::core {
namespace {

traindb::ApStatistics seen(const std::string& bssid, std::uint32_t heard,
                           std::uint32_t scans, double mean_dbm = -60.0) {
  traindb::ApStatistics s;
  s.bssid = bssid;
  s.mean_dbm = mean_dbm;
  s.stddev_db = 2.0;
  s.sample_count = heard;
  s.scan_count = scans;
  s.min_dbm = mean_dbm - 6.0;
  s.max_dbm = mean_dbm + 6.0;
  return s;
}

/// Three rooms with distinct AP detection sets — signal strengths are
/// deliberately identical everywhere, so only detections can
/// discriminate.
traindb::TrainingDatabase make_detection_db() {
  std::vector<traindb::TrainingPoint> points(3);
  points[0].location = "room-a";
  points[0].position = {0.0, 0.0};
  points[0].per_ap = {seen("pr:00", 40, 40), seen("pr:01", 40, 40),
                      seen("pr:02", 10, 40)};
  points[1].location = "room-b";
  points[1].position = {30.0, 0.0};
  points[1].per_ap = {seen("pr:02", 40, 40), seen("pr:03", 40, 40),
                      seen("pr:04", 38, 40)};
  points[2].location = "room-c";
  points[2].position = {0.0, 30.0};
  points[2].per_ap = {seen("pr:00", 5, 40), seen("pr:04", 40, 40),
                      seen("pr:05", 40, 40)};
  return traindb::TrainingDatabase::from_points(std::move(points),
                                                "detection-fixture");
}

Observation obs_of(std::initializer_list<std::string> bssids,
                   double dbm = -60.0) {
  std::vector<radio::ScanRecord> scans(1);
  for (const std::string& id : bssids) {
    scans[0].samples.push_back({id, dbm, 1});
  }
  return Observation::from_scans(scans);
}

TEST(PlaceRecognition, DetectionSetPicksTheRightPlace) {
  const auto db = make_detection_db();
  const PlaceRecognitionLocator locator(db);
  struct Case {
    std::initializer_list<std::string> heard;
    const char* expect;
  };
  const Case cases[] = {
      {{"pr:00", "pr:01"}, "room-a"},
      {{"pr:02", "pr:03", "pr:04"}, "room-b"},
      {{"pr:04", "pr:05"}, "room-c"},
  };
  for (const Case& c : cases) {
    const LocationEstimate est = locator.locate(obs_of(c.heard));
    ASSERT_TRUE(est.valid);
    EXPECT_EQ(est.location_name, c.expect);
    EXPECT_EQ(est.aps_used, static_cast<int>(c.heard.size()));
  }
}

TEST(PlaceRecognition, InvariantToDeviceRssiOffset) {
  // The campus-fleet failure mode for strength-based locators: the
  // same detections read 25 dB apart on two devices. Detection
  // scoring must not move at all.
  const auto db = make_detection_db();
  const PlaceRecognitionLocator locator(db);
  const LocationEstimate strong =
      locator.locate(obs_of({"pr:00", "pr:01"}, -45.0));
  const LocationEstimate weak =
      locator.locate(obs_of({"pr:00", "pr:01"}, -85.0));
  ASSERT_TRUE(strong.valid);
  ASSERT_TRUE(weak.valid);
  EXPECT_EQ(strong.location_name, weak.location_name);
  EXPECT_EQ(strong.score, weak.score);
}

TEST(PlaceRecognition, DegenerateInputsAreInvalid) {
  const auto db = make_detection_db();
  const PlaceRecognitionLocator locator(db);
  EXPECT_FALSE(locator.locate(Observation{}).valid);
  // Heard APs exist but none is in the trained universe.
  EXPECT_FALSE(locator.locate(obs_of({"zz:99"})).valid);

  const traindb::TrainingDatabase empty;
  const PlaceRecognitionLocator empty_locator(empty);
  EXPECT_FALSE(empty_locator.locate(obs_of({"pr:00"})).valid);
}

TEST(PlaceRecognition, ReferenceScoreAgreesWithCompiledPath) {
  const auto db = make_detection_db();
  const PlaceRecognitionLocator locator(db);
  const Observation obs = obs_of({"pr:00", "pr:01", "pr:02"});
  const LocationEstimate est = locator.locate(obs);
  ASSERT_TRUE(est.valid);

  double best_ref = -std::numeric_limits<double>::infinity();
  std::string best_name;
  for (std::size_t p = 0; p < db.points().size(); ++p) {
    int common = 0;
    const double ref =
        testkit::reference_place_score(locator, obs, p, &common);
    EXPECT_EQ(common, 3);
    if (ref > best_ref) {
      best_ref = ref;
      best_name = db.points()[p].location;
    }
  }
  EXPECT_EQ(est.location_name, best_name);
  EXPECT_NEAR(est.score, best_ref, 1e-9);
}

TEST(PlaceRecognition, CoOccurrenceDiscountsRedundantEvidence) {
  // ap "co:00" and "co:01" always appear together (duplicate
  // evidence); "co:02" follows its own pattern. The Chow-Liu-style
  // discount must bite the redundant pair harder.
  std::vector<traindb::TrainingPoint> points(6);
  for (std::size_t p = 0; p < points.size(); ++p) {
    points[p].location = "p" + std::to_string(p);
    points[p].position = {static_cast<double>(p) * 10.0, 0.0};
    if (p < 3) {
      points[p].per_ap = {seen("co:00", 38, 40), seen("co:01", 38, 40)};
    }
    if (p % 2 == 0) {
      points[p].per_ap.push_back(seen("co:02", 36, 40));
    } else {
      points[p].per_ap.push_back(seen("co:03", 36, 40));
    }
  }
  const auto db =
      traindb::TrainingDatabase::from_points(std::move(points), "cooc");
  const PlaceRecognitionLocator locator(db);
  const auto slot = [&](const char* bssid) {
    return *locator.compiled().slot_of(bssid);
  };

  const SlotEvidence& redundant = locator.evidence(slot("co:00"));
  const SlotEvidence& independent = locator.evidence(slot("co:02"));
  EXPECT_EQ(redundant.parent, static_cast<int>(slot("co:01")));
  EXPECT_LT(redundant.weight, 1.0);
  EXPECT_LT(redundant.weight, independent.weight);
  for (std::size_t u = 0; u < locator.compiled().universe_size(); ++u) {
    EXPECT_GE(locator.evidence(u).weight, locator.config().min_weight);
    EXPECT_LE(locator.evidence(u).weight, 1.0);
  }
}

}  // namespace
}  // namespace loctk::core

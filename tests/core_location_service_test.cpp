// Unit tests for the live LocationService (sliding window, Kalman
// coasting, debounced place-change callbacks).

#include "core/location_service.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/probabilistic.hpp"
#include "core/tracking.hpp"
#include "test_fixtures.hpp"

namespace loctk::core {
namespace {

using testing::fixture_bssids;
using testing::fixture_mean_rssi;
using testing::make_fixture_db;

radio::ScanRecord scan_at(geom::Vec2 pos, double t = 0.0) {
  radio::ScanRecord rec;
  rec.timestamp_s = t;
  for (std::size_t a = 0; a < fixture_bssids().size(); ++a) {
    rec.samples.push_back(
        {fixture_bssids()[a], fixture_mean_rssi(a, pos), 1});
  }
  return rec;
}

radio::ScanRecord empty_scan(double t = 0.0) {
  radio::ScanRecord rec;
  rec.timestamp_s = t;
  return rec;
}

struct Fixture {
  Fixture() : db(make_fixture_db()), locator(db) {}
  traindb::TrainingDatabase db;
  ProbabilisticLocator locator;
};

TEST(LocationService, NoFixBeforeMinScans) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.min_scans = 3;
  LocationService svc(f.locator, cfg);
  EXPECT_FALSE(svc.on_scan(scan_at({10, 10})).valid);
  EXPECT_FALSE(svc.on_scan(scan_at({10, 10})).valid);
  const ServiceFix fix = svc.on_scan(scan_at({10, 10}));
  EXPECT_TRUE(fix.valid);
  EXPECT_EQ(fix.window_fill, 3u);
}

TEST(LocationService, ConvergesToThePlace) {
  Fixture f;
  LocationService svc(f.locator);
  ServiceFix fix;
  for (int i = 0; i < 10; ++i) fix = svc.on_scan(scan_at({20, 20}));
  ASSERT_TRUE(fix.valid);
  EXPECT_EQ(fix.place, "g20-20");
  EXPECT_LT(geom::distance(fix.position, {20.0, 20.0}), 5.0);
}

TEST(LocationService, WindowSlides) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 4;
  cfg.kalman_smoothing = false;
  cfg.place_debounce = 1;
  LocationService svc(f.locator, cfg);
  // Fill the window at one corner, then move: after `window_scans`
  // scans at the new spot the old data has fully slid out.
  for (int i = 0; i < 6; ++i) svc.on_scan(scan_at({0, 0}));
  ServiceFix fix;
  for (int i = 0; i < 4; ++i) fix = svc.on_scan(scan_at({40, 40}));
  ASSERT_TRUE(fix.valid);
  EXPECT_EQ(fix.place, "g40-40");
  EXPECT_EQ(fix.window_fill, 4u);
}

TEST(LocationService, PlaceChangeCallbackDebounced) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 2;
  cfg.min_scans = 1;
  cfg.place_debounce = 3;
  cfg.kalman_smoothing = false;
  LocationService svc(f.locator, cfg);

  std::vector<std::pair<std::string, std::string>> changes;
  svc.on_place_change([&](const std::string& from, const std::string& to) {
    changes.emplace_back(from, to);
  });

  for (int i = 0; i < 5; ++i) svc.on_scan(scan_at({0, 0}));
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].first, "");
  EXPECT_EQ(changes[0].second, "g0-0");

  // One stray scan from elsewhere: debounce absorbs it.
  svc.on_scan(scan_at({40, 40}));
  EXPECT_EQ(changes.size(), 1u);
  // window is 2: feed enough scans for the window to be fully at the
  // new location for 3 consecutive resolutions.
  for (int i = 0; i < 6; ++i) svc.on_scan(scan_at({40, 40}));
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[1].first, "g0-0");
  EXPECT_EQ(changes[1].second, "g40-40");
}

TEST(LocationService, CoastsThroughEmptyScans) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 2;
  cfg.min_scans = 1;
  LocationService svc(f.locator, cfg);
  for (int i = 0; i < 5; ++i) svc.on_scan(scan_at({20, 20}));
  // Radio silence: the window drains to empty scans, the locator
  // fails, but the Kalman layer keeps answering near the last fix.
  ServiceFix fix;
  for (int i = 0; i < 3; ++i) fix = svc.on_scan(empty_scan());
  EXPECT_TRUE(fix.valid);
  EXPECT_LT(geom::distance(fix.position, {20.0, 20.0}), 6.0);
}

TEST(LocationService, NoKalmanNoCoasting) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 1;
  cfg.min_scans = 1;
  cfg.kalman_smoothing = false;
  LocationService svc(f.locator, cfg);
  EXPECT_TRUE(svc.on_scan(scan_at({20, 20})).valid);
  EXPECT_FALSE(svc.on_scan(empty_scan()).valid);
}

// Regression companion to the Kalman dt fix: scan timestamps now feed
// the filter, so the same scan contents arriving at a different cadence
// propagate the motion model differently.
TEST(LocationService, ScanTimestampsDriveKalmanDt) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 1;
  cfg.min_scans = 1;
  cfg.kalman.dt_s = 1.0;

  LocationService fast(f.locator, cfg);   // scans 0.1 s apart
  LocationService slow(f.locator, cfg);   // scans 10 s apart
  ServiceFix fix_fast, fix_slow;
  for (int i = 0; i < 8; ++i) {
    // A moving client: identical positions per step in both services.
    const geom::Vec2 pos{5.0 + 4.0 * i, 20.0};
    fix_fast = fast.on_scan(scan_at(pos, 0.1 * i));
    fix_slow = slow.on_scan(scan_at(pos, 10.0 * i));
  }
  ASSERT_TRUE(fix_fast.valid);
  ASSERT_TRUE(fix_slow.valid);
  // Different dt -> different covariance growth -> different gains ->
  // different smoothed positions. Equal positions would mean the
  // timestamps were ignored.
  EXPECT_NE(fix_fast.position, fix_slow.position);
}

TEST(LocationService, ZeroTimestampsKeepFallbackBehavior) {
  // All-zero timestamps (the old tests' shape) give dt = 0, which the
  // tracker rejects in favor of config dt — i.e. exactly the previous
  // fixed-step behavior, bit for bit.
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 1;
  cfg.min_scans = 1;
  cfg.kalman.dt_s = 1.0;
  LocationService timestamped(f.locator, cfg);

  KalmanTracker reference(cfg.kalman);
  for (int i = 0; i < 6; ++i) {
    const geom::Vec2 pos{5.0 + 4.0 * i, 20.0};
    const ServiceFix fix = timestamped.on_scan(scan_at(pos, 0.0));
    const Observation obs =
        Observation::from_scans(std::vector<radio::ScanRecord>{
            scan_at(pos, 0.0)});
    const LocationEstimate est = f.locator.locate(obs);
    ASSERT_TRUE(est.valid);
    const geom::Vec2 expected = reference.update(est.position, 1.0);
    EXPECT_EQ(fix.position, expected) << "step " << i;
  }
}

TEST(LocationService, CountsRejectedSamples) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 1;
  cfg.min_scans = 1;
  LocationService svc(f.locator, cfg);
  radio::ScanRecord rec = scan_at({20, 20});
  rec.samples.push_back(
      {"ff:ff:ff:ff:ff:ff", std::numeric_limits<double>::quiet_NaN(), 1});
  rec.samples.push_back(
      {"ff:ff:ff:ff:ff:fe", std::numeric_limits<double>::infinity(), 1});
  const ServiceFix fix = svc.on_scan(rec);
  EXPECT_TRUE(fix.valid);  // the finite samples still locate
  EXPECT_EQ(svc.rejected_samples(), 2u);
}

TEST(LocationService, OverCapScansEnterTheWindowEmpty) {
  Fixture f;
  LocationServiceConfig cfg;
  cfg.window_scans = 1;
  cfg.min_scans = 1;
  cfg.kalman_smoothing = false;
  LocationService svc(f.locator, cfg);
  // A BSSID of exactly kMaxBssidBytes is let in.
  radio::ScanRecord at_cap = scan_at({20, 20});
  at_cap.samples.push_back(
      {std::string(LocationService::kMaxBssidBytes, 'x'), -70.0, 1});
  EXPECT_TRUE(svc.on_scan(at_cap).valid);
  EXPECT_EQ(svc.rejected_samples(), 0u);

  // One byte more rejects the whole scan, not just that sample.
  radio::ScanRecord long_bssid = scan_at({20, 20});
  long_bssid.samples.push_back(
      {std::string(LocationService::kMaxBssidBytes + 1, 'x'), -70.0, 1});
  EXPECT_FALSE(svc.on_scan(long_bssid).valid);
  std::size_t rejected = long_bssid.samples.size();
  EXPECT_EQ(svc.rejected_samples(), rejected);

  // So does one sample more than kMaxScanSamples.
  radio::ScanRecord crowded = scan_at({20, 20});
  while (crowded.samples.size() <= LocationService::kMaxScanSamples) {
    crowded.samples.push_back(crowded.samples.front());
  }
  EXPECT_FALSE(svc.on_scan(crowded).valid);
  rejected += crowded.samples.size();
  EXPECT_EQ(svc.rejected_samples(), rejected);
  EXPECT_TRUE(svc.on_scan(scan_at({20, 20})).valid);
}

/// Heap bytes in use, where the C library reports them (0 elsewhere).
std::size_t heap_in_use() {
#if defined(__GLIBC__)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

// One large scan under the caps must not pin its size once it has left
// the window. The first session on the thread takes 20 normal scans,
// one spike of kMaxScanSamples unknown kMaxBssidBytes-byte BSSIDs (about
// 90 KB in the ring and the unknown list, 32 KB in the thread's fold
// scratch), then 40 normal scans; heap in use, the fold scratch
// included, must come back to the pre-spike level within a small
// constant. The scratch gives back at most 32 folds after the spike
// leaves the window, whatever folds the thread ran before.
TEST(LocationService, SpikeLeavesNoRetainedHeap) {
  Fixture f;
  radio::ScanRecord spike;
  for (std::size_t k = 0; k < LocationService::kMaxScanSamples; ++k) {
    std::string bssid = "spike:" + std::to_string(k);
    bssid.resize(LocationService::kMaxBssidBytes, '.');
    spike.samples.push_back({std::move(bssid), -80.0, 1});
  }
  const std::vector<radio::ScanRecord> normal = {scan_at({10, 10}),
                                                 scan_at({30, 20})};
  LocationService svc{LocationServiceConfig{}};
  for (std::size_t i = 0; i < 20; ++i) {
    svc.on_scan(f.locator, normal[i % 2]);
  }
  const std::size_t before = heap_in_use();
  svc.on_scan(f.locator, spike);
  for (std::size_t i = 0; i < 40; ++i) {
    svc.on_scan(f.locator, normal[i % 2]);
  }
  const std::size_t after = heap_in_use();
  EXPECT_LE(after, before + 16 * 1024)
      << "heap in use " << before << " before the spike, " << after
      << " after it left the window";
  EXPECT_EQ(svc.rejected_samples(), 0u);
  EXPECT_TRUE(svc.current().valid);
}

// The serving layer's foundational assumption, pinned as a regression:
// locators are immutable after construction, so any number of services
// (or server shards) may share one instance across threads. The
// Locator query surface is const — and must actually be thread-safe,
// not just const-annotated. Run under TSan this test is the proof; in
// a plain build it still checks result integrity.
TEST(LocationService, DistinctServicesShareOneLocatorAcrossThreads) {
  static_assert(
      std::is_same_v<decltype(&Locator::locate),
                     LocationEstimate (Locator::*)(const Observation&)
                         const>,
      "Locator::locate must stay const: services and server shards "
      "share locators across threads");

  Fixture f;
  constexpr int kThreads = 2;
  constexpr int kScans = 50;
  std::vector<ServiceFix> last(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LocationService svc(f.locator);  // distinct service, shared locator
      ServiceFix fix;
      for (int i = 0; i < kScans; ++i) {
        fix = svc.on_scan(scan_at({20, 20}, 1.0 * i));
      }
      last[static_cast<std::size_t>(t)] = fix;
    });
  }
  for (std::thread& t : threads) t.join();

  // Identical inputs through independent sessions over the shared
  // locator must give identical answers — cross-thread interference
  // through the locator would break this (and trip TSan).
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(last[static_cast<std::size_t>(t)].valid) << t;
    EXPECT_EQ(last[static_cast<std::size_t>(t)].position, last[0].position);
    EXPECT_EQ(last[static_cast<std::size_t>(t)].place, last[0].place);
  }
}

TEST(LocationService, UnboundServiceTakesPerScanLocator) {
  // The serve-path form: a session constructed without a locator is
  // fed one per scan (the shard's pinned snapshot). Feeding the same
  // locator each time must match the bound service exactly.
  Fixture f;
  LocationService bound(f.locator);
  LocationService unbound((LocationServiceConfig()));
  EXPECT_TRUE(bound.bound());
  EXPECT_FALSE(unbound.bound());
  for (int i = 0; i < 8; ++i) {
    const radio::ScanRecord rec = scan_at({20, 20}, 1.0 * i);
    const ServiceFix want = bound.on_scan(rec);
    const ServiceFix got = unbound.on_scan(f.locator, rec);
    EXPECT_EQ(got.valid, want.valid) << i;
    EXPECT_EQ(got.position, want.position) << i;
    EXPECT_EQ(got.place, want.place) << i;
  }
  // The locator-less entry points are unusable on an unbound service.
  EXPECT_THROW(unbound.on_scan(scan_at({20, 20})), std::logic_error);
}

TEST(LocationService, ScansSeenSurvivesReset) {
  Fixture f;
  LocationService svc(f.locator);
  for (int i = 0; i < 5; ++i) svc.on_scan(scan_at({20, 20}));
  svc.reset();
  EXPECT_EQ(svc.scans_seen(), 5u);
}

TEST(LocationService, ResetForgetsEverything) {
  Fixture f;
  LocationService svc(f.locator);
  for (int i = 0; i < 5; ++i) svc.on_scan(scan_at({20, 20}));
  svc.reset();
  EXPECT_FALSE(svc.current().valid);
  EXPECT_TRUE(svc.current().place.empty());
  EXPECT_EQ(svc.current().window_fill, 0u);
}

}  // namespace
}  // namespace loctk::core

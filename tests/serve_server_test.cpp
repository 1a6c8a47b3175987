// LocationServer: the multi-tenant serving core. Covers the control
// plane (site registry, duplicate/invalid rejection), the data plane's
// equivalence with a standalone LocationService, and the swap
// edge cases the design document calls out: sessions surviving a hot
// swap, a swap landing while a reader is mid-locate_batch, double-swap
// inside one epoch, swapping to an empty/degenerate database, and an
// 8-thread swap-storm meant to run under TSan; and the 1-in-64 sampled
// stage timing of on_scan.

#include "serve/location_server.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.hpp"
#include "core/compiled_db.hpp"
#include "core/location_service.hpp"
#include "core/probabilistic.hpp"
#include "test_fixtures.hpp"
#include "traindb/database.hpp"

namespace loctk::serve {
namespace {

using loctk::testing::fixture_bssids;
using loctk::testing::fixture_mean_rssi;
using loctk::testing::fixture_observation;
using loctk::testing::make_fixture_db;

radio::ScanRecord scan_at(geom::Vec2 pos, double t = 0.0) {
  radio::ScanRecord rec;
  rec.timestamp_s = t;
  for (std::size_t a = 0; a < fixture_bssids().size(); ++a) {
    rec.samples.push_back(
        {fixture_bssids()[a], fixture_mean_rssi(a, pos), 1});
  }
  return rec;
}

/// A fresh locator over the (deterministic) fixture database. Each
/// call recompiles from scratch — two calls give *equivalent* but
/// distinct snapshots, exactly what a production republish installs.
std::shared_ptr<const core::Locator> make_locator() {
  return std::make_shared<core::ProbabilisticLocator>(
      core::CompiledDatabase::compile_owned(make_fixture_db()));
}

/// A locator over an empty training database: every locate fails.
std::shared_ptr<const core::Locator> make_degenerate_locator() {
  return std::make_shared<core::ProbabilisticLocator>(
      core::CompiledDatabase::compile_owned(traindb::TrainingDatabase{}));
}

LocationServerConfig small_config() {
  LocationServerConfig config;
  config.max_sites = 8;
  config.sessions_per_site = 64;
  config.reader_slots = 16;
  return config;
}

TEST(LocationServer, AddAndFindSites) {
  LocationServer server(small_config());
  const SiteId a = server.add_site("alpha", make_locator());
  const SiteId b = server.add_site("beta", make_locator());
  EXPECT_NE(a, b);
  EXPECT_EQ(server.site_count(), 2u);
  EXPECT_EQ(server.find_site("alpha"), std::optional<SiteId>(a));
  EXPECT_EQ(server.find_site("beta"), std::optional<SiteId>(b));
  EXPECT_EQ(server.find_site("gamma"), std::nullopt);
  EXPECT_EQ(server.generation(a), 1u);
  EXPECT_EQ(server.stats(a).name, "alpha");
}

TEST(LocationServer, RejectsDuplicateAndInvalidSites) {
  LocationServer server(small_config());
  server.add_site("alpha", make_locator());
  EXPECT_THROW(server.add_site("alpha", make_locator()),
               std::invalid_argument);
  EXPECT_THROW(server.add_site("null", nullptr), std::invalid_argument);
}

TEST(LocationServer, FullServerRejectsNewSites) {
  LocationServerConfig config = small_config();
  config.max_sites = 2;
  LocationServer server(config);
  server.add_site("a", make_locator());
  server.add_site("b", make_locator());
  EXPECT_THROW(server.add_site("c", make_locator()), std::invalid_argument);
}

TEST(LocationServer, UnknownSiteDegradesInsteadOfThrowing) {
  LocationServer server(small_config());
  const core::ServiceFix fix = server.on_scan(99, 1, scan_at({10, 10}));
  EXPECT_FALSE(fix.valid);
  EXPECT_NE(fix.degraded_reason.find("[degenerate]"), std::string::npos);
  EXPECT_FALSE(server.try_locate(99, fixture_observation({10, 10})));
  EXPECT_EQ(server.generation(99), 0u);
}

TEST(LocationServer, OnScanMatchesStandaloneLocationService) {
  // The server must be a transparent routing layer: one device's fix
  // stream through the server equals a standalone LocationService on
  // the same locator, scan for scan.
  auto locator = make_locator();
  LocationServer server(small_config());
  const SiteId site = server.add_site("alpha", locator);
  // Shard counters are process-global (keyed by site name): use deltas.
  const std::uint64_t scans_before = server.stats(site).scans;

  core::LocationService reference(*locator, small_config().service);
  for (int i = 0; i < 10; ++i) {
    const radio::ScanRecord rec = scan_at({20, 20}, 1.0 * i);
    const core::ServiceFix got = server.on_scan(site, 7, rec);
    const core::ServiceFix want = reference.on_scan(rec);
    EXPECT_EQ(got.valid, want.valid) << i;
    EXPECT_EQ(got.position, want.position) << i;
    EXPECT_EQ(got.place, want.place) << i;
  }
  const SiteStats stats = server.stats(site);
  EXPECT_EQ(stats.scans - scans_before, 10u);
  EXPECT_EQ(stats.sessions, 1u);
}

TEST(LocationServer, SessionsSurviveHotSwap) {
  // A republished (equivalent) snapshot must not reset device state:
  // the fix stream with a swap in the middle is identical to an
  // uninterrupted one.
  auto locator = make_locator();
  LocationServer server(small_config());
  const SiteId site = server.add_site("alpha", locator);
  core::LocationService reference(*locator, small_config().service);

  for (int i = 0; i < 6; ++i) {
    const radio::ScanRecord rec = scan_at({20, 20}, 1.0 * i);
    server.on_scan(site, 7, rec);
    reference.on_scan(rec);
  }
  EXPECT_EQ(server.swap_site(site, make_locator()), 2u);
  for (int i = 6; i < 12; ++i) {
    const radio::ScanRecord rec = scan_at({20, 20}, 1.0 * i);
    const core::ServiceFix got = server.on_scan(site, 7, rec);
    const core::ServiceFix want = reference.on_scan(rec);
    EXPECT_EQ(got.valid, want.valid) << i;
    EXPECT_EQ(got.position, want.position) << i;
    EXPECT_EQ(got.place, want.place) << i;
  }
  EXPECT_EQ(server.stats(site).sessions, 1u);
  EXPECT_EQ(server.generation(site), 2u);
}

TEST(LocationServer, DoubleSwapInOneEpochReclaimsBoth) {
  LocationServer server(small_config());
  const SiteId site = server.add_site("alpha", make_locator());
  // Two swaps back to back with no reader pinned in between: both
  // retired snapshots must be reclaimed, generation advances by 2.
  EXPECT_EQ(server.swap_site(site, make_locator()), 2u);
  EXPECT_EQ(server.swap_site(site, make_locator()), 3u);
  server.reclaim(site);
  const SiteStats stats = server.stats(site);
  EXPECT_EQ(stats.generation, 3u);
  EXPECT_EQ(stats.retired_snapshots, 0u);
  // The data plane sees the latest snapshot.
  EXPECT_TRUE(server.on_scan(site, 1, scan_at({20, 20})).window_fill > 0);
}

TEST(LocationServer, SwapToDegenerateDatabaseDegradesNotCrashes) {
  LocationServerConfig config = small_config();
  // No Kalman coasting, single-scan window: locator failure must show
  // through as an invalid fix immediately.
  config.service.kalman_smoothing = false;
  config.service.window_scans = 1;
  config.service.min_scans = 1;
  LocationServer server(config);
  const SiteId site = server.add_site("alpha", make_locator());

  EXPECT_TRUE(server.on_scan(site, 1, scan_at({20, 20}, 0.0)).valid);

  server.swap_site(site, make_degenerate_locator());
  // The empty map cannot locate anything — the scan degrades, the
  // serving loop does not unwind, the session is retained.
  const core::ServiceFix degraded =
      server.on_scan(site, 1, scan_at({20, 20}, 1.0));
  EXPECT_FALSE(degraded.valid);
  EXPECT_EQ(server.stats(site).sessions, 1u);
  EXPECT_FALSE(server.try_locate(site, fixture_observation({20, 20})));

  // Swapping back to a real map restores service on the same session.
  server.swap_site(site, make_locator());
  EXPECT_TRUE(server.on_scan(site, 1, scan_at({20, 20}, 2.0)).valid);
  EXPECT_EQ(server.generation(site), 3u);
}

/// Not derived from std::exception on purpose: Locator::try_locate
/// already converts std::exception throws into a typed kInternal
/// Error, so only a foreign exception type reaches the serving layer —
/// which is exactly the path the on_scan contract must survive.
struct HostileUnwind {};

class ThrowingLocator : public core::Locator {
 public:
  core::LocationEstimate locate(const core::Observation&) const override {
    throw HostileUnwind{};
  }
  std::string name() const override { return "throwing"; }
};

class ThrowingStdLocator : public core::Locator {
 public:
  core::LocationEstimate locate(const core::Observation&) const override {
    throw std::runtime_error("scoring blew up");
  }
  std::string name() const override { return "throwing-std"; }
};

TEST(LocationServer, OnScanNeverUnwindsOnThrowingLocator) {
  // Regression: on_scan used to rethrow locator exceptions, violating
  // the "data plane must not unwind on hostile input" contract. A
  // throwing locator must degrade the scan, count it in
  // serve.shard.<site>.errors, release the session spinlock, and leave
  // the session serviceable after a swap to a good snapshot.
  LocationServerConfig config = small_config();
  config.service.kalman_smoothing = false;
  config.service.window_scans = 1;
  config.service.min_scans = 1;
  LocationServer server(config);
  const SiteId site =
      server.add_site("hostile", std::make_shared<ThrowingLocator>());
  const std::uint64_t errors_before = server.stats(site).errors;
  const std::uint64_t scans_before = server.stats(site).scans;

  core::ServiceFix fix;
  ASSERT_NO_THROW(fix = server.on_scan(site, 7, scan_at({20, 20})));
  EXPECT_FALSE(fix.valid);
  EXPECT_NE(fix.degraded_reason.find("[internal]"), std::string::npos);

  SiteStats stats = server.stats(site);
  EXPECT_EQ(stats.errors - errors_before, 1u);
  EXPECT_EQ(stats.scans - scans_before, 1u);
  EXPECT_EQ(stats.sessions, 1u);

  // The spinlock was released and the session survived: the same
  // device resumes valid fixes once a good snapshot is swapped in.
  server.swap_site(site, make_locator());
  ASSERT_NO_THROW(fix = server.on_scan(site, 7, scan_at({20, 20}, 1.0)));
  EXPECT_TRUE(fix.valid);
  EXPECT_EQ(server.stats(site).errors - errors_before, 1u);
}

TEST(LocationServer, OnScanReportsStdExceptionMessage) {
  // The std::exception flavor is absorbed earlier (try_locate maps it
  // to a degraded fix), but a locator that throws from elsewhere on
  // the scan path must still degrade — and carry the what() string so
  // operators can see why.
  LocationServerConfig config = small_config();
  config.service.kalman_smoothing = false;
  config.service.window_scans = 1;
  config.service.min_scans = 1;
  LocationServer server(config);
  const SiteId site =
      server.add_site("hostile-std", std::make_shared<ThrowingStdLocator>());
  const core::ServiceFix fix = server.on_scan(site, 7, scan_at({20, 20}));
  EXPECT_FALSE(fix.valid);
}

TEST(LocationServer, LocateBatchPinsOneSnapshotAcrossSwaps) {
  // A batch is scored by a single pinned snapshot even while swaps
  // land concurrently; with equivalent snapshots, every answer equals
  // the single-shot reference regardless of interleaving.
  auto locator = make_locator();
  LocationServer server(small_config());
  const SiteId site = server.add_site("alpha", locator);

  std::vector<core::Observation> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(fixture_observation(
        {static_cast<double>(i % 5) * 10.0,
         static_cast<double>(i / 13) * 10.0}));
  }
  const std::vector<core::LocationEstimate> want =
      locator->locate_batch(batch);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      server.swap_site(site, make_locator());
    }
  });
  for (int round = 0; round < 20; ++round) {
    const std::vector<core::LocationEstimate> got =
        server.locate_batch(site, batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].valid, want[i].valid) << i;
      EXPECT_EQ(got[i].position, want[i].position) << i;
      EXPECT_EQ(got[i].location_name, want[i].location_name) << i;
    }
  }
  stop.store(true, std::memory_order_release);
  swapper.join();
  server.reclaim(site);
  EXPECT_EQ(server.stats(site).retired_snapshots, 0u);
}

TEST(LocationServer, EightThreadSwapStorm) {
  // The TSan target: 8 scan threads over 2 sites × many devices while
  // a swapper republishes both sites as fast as it can. Every fix must
  // be well-formed, per-shard accounting must balance, and no retired
  // snapshot may survive the final reclaim.
  constexpr int kThreads = 8;
  constexpr int kScansPerThread = 120;
  LocationServerConfig config = small_config();
  config.sessions_per_site = 256;
  LocationServer server(config);
  const SiteId sites[2] = {server.add_site("storm-a", make_locator()),
                           server.add_site("storm-b", make_locator())};
  // Shard counters live in the process-global metrics registry (keyed
  // by site name), so assert on deltas from this baseline.
  const std::uint64_t scans_before[2] = {server.stats(sites[0]).scans,
                                         server.stats(sites[1]).scans};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> swaps{0};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const SiteId site : sites) {
        server.swap_site(site, make_locator());
        swaps.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::vector<std::thread> threads;
  std::atomic<int> bad_fixes{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kScansPerThread; ++i) {
        const SiteId site = sites[t % 2];
        const DeviceId device =
            static_cast<DeviceId>(t * 1000 + (i % 8) + 1);
        const core::ServiceFix fix =
            server.on_scan(site, device, scan_at({20, 20}, 1.0 * i));
        // Each device sees one scan every 8 iterations; once a device
        // has a few scans in its window the fixture scan always
        // locates, so a later invalid fix would mean a scan raced a
        // swap into a bad state.
        if (i >= 8 * 4 && !fix.valid) bad_fixes.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  swapper.join();

  EXPECT_EQ(bad_fixes.load(), 0);
  EXPECT_GE(swaps.load(), 2u);
  std::uint64_t total_scans = 0;
  for (int s = 0; s < 2; ++s) {
    const SiteId site = sites[s];
    server.reclaim(site);
    const SiteStats stats = server.stats(site);
    total_scans += stats.scans - scans_before[s];
    EXPECT_EQ(stats.retired_snapshots, 0u);
    EXPECT_EQ(stats.sessions_rejected, 0u);
    EXPECT_EQ(stats.generation, server.generation(site));
    // 4 threads × 8 device slots hit each site.
    EXPECT_EQ(stats.sessions, 32u);
  }
  EXPECT_EQ(total_scans,
            static_cast<std::uint64_t>(kThreads) * kScansPerThread);
}

// One scan in metrics::kSampleEvery per thread is timed, stage by
// stage, and the rest read no clock. On a fresh thread 64·k scans give
// the site's on_scan histogram and every serve.stage.* histogram
// exactly k samples; the stages of a sampled scan partition it, so
// their sums add up to the on_scan sum. A served locate is timed only
// on a sampled scan: the first one is a session's first scan, which
// has no locate yet.
TEST(LocationServer, SampledScansTimeStagesThatPartitionOnScan) {
  constexpr std::uint64_t k = 5;
  LocationServer server(small_config());
  const SiteId site = server.add_site("sampled", make_locator());
  const std::vector<std::string> stages = {
      "pin", "session", "door", "lookup", "merge", "locate", "kalman",
      "metrics"};
  struct Reading {
    std::uint64_t count;
    double sum;
  };
  const auto read = [](const std::string& name) {
    const metrics::HistogramSnapshot snap =
        metrics::histogram(name).snapshot(name);
    return Reading{snap.count, snap.sum};
  };
  const std::string on_scan = "serve.shard.sampled.on_scan.seconds";
  const std::string latency = "locate.latency.seconds";
  const auto stage_name = [](const std::string& stage) {
    return "serve.stage." + stage + ".seconds";
  };
  const Reading on_scan_before = read(on_scan);
  const Reading latency_before = read(latency);
  std::vector<Reading> stages_before;
  for (const std::string& stage : stages) {
    stages_before.push_back(read(stage_name(stage)));
  }

  std::thread([&] {
    for (std::uint64_t i = 0; i < k * metrics::kSampleEvery; ++i) {
      const double x = 10.0 + static_cast<double>(i % 7);
      server.on_scan(site, 1 + i % 4,
                     scan_at({x, 20.0}, 0.5 * static_cast<double>(i)));
    }
  }).join();

  EXPECT_EQ(server.stats(site).scans, k * metrics::kSampleEvery);
  const Reading whole = read(on_scan);
  EXPECT_EQ(whole.count - on_scan_before.count, k);
  const double whole_s = whole.sum - on_scan_before.sum;
  EXPECT_GT(whole_s, 0.0);
  EXPECT_EQ(read(latency).count - latency_before.count, k - 1);
  double stage_s = 0.0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Reading r = read(stage_name(stages[i]));
    EXPECT_EQ(r.count - stages_before[i].count, k) << stages[i];
    stage_s += r.sum - stages_before[i].sum;
  }
  EXPECT_NEAR(stage_s, whole_s, static_cast<double>(k) * 1e-9);
}

TEST(LocationServer, StatsExposeEpochAndGeneration) {
  LocationServer server(small_config());
  const SiteId site = server.add_site("alpha", make_locator());
  const SiteStats before = server.stats(site);
  EXPECT_EQ(before.generation, 1u);
  server.swap_site(site, make_locator());
  const SiteStats after = server.stats(site);
  EXPECT_EQ(after.generation, 2u);
  EXPECT_GT(after.epoch, before.epoch);
  EXPECT_EQ(after.reader_stalls, 0u);
}

}  // namespace
}  // namespace loctk::serve

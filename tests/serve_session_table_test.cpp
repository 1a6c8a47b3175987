// SessionTable: lock-free per-device session storage. The contract
// under test: one session per device forever (find_or_create is
// idempotent and race-free), a full table rejects instead of
// blocking, and sessions persist — pointers stay stable for the
// table's lifetime because the serving layer holds them across calls.

#include "serve/session_table.hpp"

#include <array>
#include <atomic>
#include <cstddef>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/location_service.hpp"

namespace loctk::serve {
namespace {

core::LocationServiceConfig service_config() {
  core::LocationServiceConfig config;
  config.window_scans = 3;
  return config;
}

TEST(SessionTable, CapacityRoundsUpToPowerOfTwo) {
  SessionTable table(/*capacity=*/100);
  EXPECT_EQ(table.capacity(), 128u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(SessionTable(64).capacity(), 64u);
  EXPECT_EQ(SessionTable(0).capacity(), 1u);
}

// Regression: the table used to split its cells into 16 stripes and
// probe only the device's own stripe, so a capacity-64 table refused
// the 18th of these devices with 47 cells free. One probe over every
// cell admits a device while any cell is free.
TEST(SessionTable, AdmitsDevicesUntilEveryCellIsTaken) {
  SessionTable table(/*capacity=*/64);
  const auto config = service_config();
  std::vector<Session*> sessions;
  for (DeviceId d = 1; d <= 64; ++d) {
    bool created = false;
    Session* s = table.find_or_create((DeviceId{1} << 32) | d, config,
                                      &created);
    ASSERT_NE(s, nullptr) << "device " << d << " of 64 refused with "
                          << table.capacity() - table.size()
                          << " cells free";
    EXPECT_TRUE(created);
    sessions.push_back(s);
  }
  EXPECT_EQ(table.size(), 64u);
  EXPECT_EQ(table.find_or_create((DeviceId{1} << 32) | 65, config), nullptr);
  EXPECT_EQ(table.find((DeviceId{1} << 32) | 65), nullptr);
  for (DeviceId d = 1; d <= 64; ++d) {
    EXPECT_EQ(table.find((DeviceId{1} << 32) | d), sessions[d - 1]);
    EXPECT_EQ(table.find_or_create((DeviceId{1} << 32) | d, config),
              sessions[d - 1]);
  }
  EXPECT_EQ(table.size(), 64u);
}

TEST(SessionTable, FindOrCreateIsIdempotent) {
  SessionTable table(64);
  const auto config = service_config();
  Session* first = table.find_or_create(42, config);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find_or_create(42, config), first);
  EXPECT_EQ(table.find(42), first);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SessionTable, FindWithoutCreateReturnsNull) {
  SessionTable table(64);
  EXPECT_EQ(table.find(7), nullptr);
  table.find_or_create(7, service_config());
  EXPECT_NE(table.find(7), nullptr);
  EXPECT_EQ(table.find(8), nullptr);
}

TEST(SessionTable, DistinctDevicesGetDistinctSessions) {
  SessionTable table(1 << 10);
  const auto config = service_config();
  std::set<Session*> sessions;
  for (DeviceId d = 1; d <= 200; ++d) {
    Session* s = table.find_or_create(d, config);
    ASSERT_NE(s, nullptr);
    sessions.insert(s);
  }
  EXPECT_EQ(sessions.size(), 200u);
  EXPECT_EQ(table.size(), 200u);
}

TEST(SessionTable, FullTableRejectsNewDevicesButServesExisting) {
  // A minimal table: easy to fill completely.
  SessionTable table(/*capacity=*/4);
  const auto config = service_config();
  ASSERT_EQ(table.capacity(), 4u);

  std::vector<DeviceId> admitted;
  DeviceId next = 1;
  while (admitted.size() < table.capacity()) {
    if (table.find_or_create(next, config) != nullptr) {
      admitted.push_back(next);
    }
    ++next;
  }
  EXPECT_EQ(table.size(), table.capacity());

  // A brand-new device must be rejected, not block or evict...
  EXPECT_EQ(table.find_or_create(next, config), nullptr);
  // ...while every admitted device keeps resolving to its session.
  for (DeviceId d : admitted) {
    EXPECT_NE(table.find(d), nullptr);
  }
}

TEST(SessionTable, ConcurrentCreatesConvergeOnOneSession) {
  // The claim race: many threads call find_or_create for the same
  // fresh device simultaneously; exactly one session may exist and
  // every caller must receive that same pointer.
  constexpr int kThreads = 8;
  constexpr DeviceId kDevices = 64;
  SessionTable table(1 << 10);
  const auto config = service_config();

  std::vector<std::vector<Session*>> seen(kThreads,
                                          std::vector<Session*>(kDevices));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (DeviceId d = 1; d <= kDevices; ++d) {
        seen[static_cast<std::size_t>(t)][d - 1] =
            table.find_or_create(d, config);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (DeviceId d = 1; d <= kDevices; ++d) {
    Session* canonical = seen[0][d - 1];
    ASSERT_NE(canonical, nullptr);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][d - 1], canonical)
          << "device " << d << " thread " << t;
    }
  }
  EXPECT_EQ(table.size(), kDevices);
}

TEST(SessionTable, FindWaitsForPublicationDuringClaimRace) {
  // Regression: find() used to return the cell's session pointer as
  // soon as the key matched — which is nullptr in the window between
  // the winner's key CAS and its session publication, violating the
  // "nullptr when absent" contract for a device that exists. Race a
  // creator against a finder on a fresh device per round: whenever the
  // finder's probe lands inside that window it must now wait and come
  // back with the winner's session, never nullptr-then-a-session.
  constexpr DeviceId kRounds = 512;
  SessionTable table(1 << 12);
  const auto config = service_config();

  std::atomic<DeviceId> current{0};
  std::array<std::atomic<Session*>, kRounds + 1> created{};
  std::atomic<bool> stop{false};

  std::thread finder([&] {
    DeviceId last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const DeviceId d = current.load(std::memory_order_acquire);
      if (d == 0 || d == last) continue;
      // Hammer find() while the creator is (maybe) mid-claim. A
      // non-null result must be the winner's session once published.
      Session* seen = nullptr;
      for (;;) {
        seen = table.find(d);
        if (seen) break;
        Session* c = created[d].load(std::memory_order_acquire);
        if (c) {
          // Publication happened-before this load, so a find() issued
          // now must observe the session. Old code could still return
          // nullptr here if its earlier probe cached the race window.
          seen = table.find(d);
          EXPECT_NE(seen, nullptr) << "device " << d;
          break;
        }
      }
      if (Session* c = created[d].load(std::memory_order_acquire)) {
        EXPECT_EQ(seen, c) << "device " << d;
      }
      last = d;
    }
  });

  for (DeviceId d = 1; d <= kRounds; ++d) {
    current.store(d, std::memory_order_release);
    Session* s = table.find_or_create(d, config);
    ASSERT_NE(s, nullptr);
    created[d].store(s, std::memory_order_release);
    // Creator-side view: the session exists, so find() may never say
    // otherwise again.
    EXPECT_EQ(table.find(d), s);
  }
  stop.store(true, std::memory_order_release);
  finder.join();

  EXPECT_EQ(table.size(), kRounds);
  for (DeviceId d = 1; d <= kRounds; ++d) {
    EXPECT_EQ(table.find(d), created[d].load());
  }
}

TEST(SessionTable, ConcurrentFindAndCreateConvergeOnWinner) {
  // The claim race with mixed traffic: half the threads create, half
  // only look up. Every non-null answer for a device — from either
  // path — must be the single winning session (no duplicates, no
  // torn lookups). Runs under the TSan CI job.
  constexpr int kCreators = 4;
  constexpr int kFinders = 4;
  constexpr DeviceId kDevices = 128;
  SessionTable table(1 << 10);
  const auto config = service_config();

  std::vector<std::vector<Session*>> created(
      kCreators, std::vector<Session*>(kDevices));
  std::atomic<int> ready{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCreators; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kCreators + kFinders) std::this_thread::yield();
      for (DeviceId d = 1; d <= kDevices; ++d) {
        created[static_cast<std::size_t>(t)][d - 1] =
            table.find_or_create(d, config);
      }
    });
  }
  std::vector<std::vector<Session*>> found(
      kFinders, std::vector<Session*>(kDevices, nullptr));
  for (int t = 0; t < kFinders; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kCreators + kFinders) std::this_thread::yield();
      while (!stop.load(std::memory_order_acquire)) {
        for (DeviceId d = 1; d <= kDevices; ++d) {
          if (Session* s = table.find(d)) {
            found[static_cast<std::size_t>(t)][d - 1] = s;
          }
        }
      }
    });
  }
  for (int t = 0; t < kCreators; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  for (int t = kCreators; t < kCreators + kFinders; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }

  for (DeviceId d = 1; d <= kDevices; ++d) {
    Session* canonical = created[0][d - 1];
    ASSERT_NE(canonical, nullptr);
    for (int t = 1; t < kCreators; ++t) {
      EXPECT_EQ(created[static_cast<std::size_t>(t)][d - 1], canonical);
    }
    for (int t = 0; t < kFinders; ++t) {
      Session* f = found[static_cast<std::size_t>(t)][d - 1];
      if (f != nullptr) EXPECT_EQ(f, canonical);
    }
  }
  EXPECT_EQ(table.size(), kDevices);
}

TEST(SessionTable, SessionLockSerializesSameDevice) {
  SessionTable table(64);
  Session* s = table.find_or_create(1, service_config());
  ASSERT_NE(s, nullptr);

  int shared = 0;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        s->lock();
        ++shared;  // data-race-free only if lock() works (TSan checks)
        s->unlock();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared, 4 * kIters);
}

}  // namespace
}  // namespace loctk::serve

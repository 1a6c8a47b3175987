// Direct unit tests for parallel_for / parallel_reduce edge behavior:
// empty and single-element ranges, exception propagation, grain
// handling, and re-entry from a pool worker thread (the pattern the
// fleet soak driver relies on when a per-device body itself fans out,
// and every swap wave builds a locator inside a pool task).

#include "concurrency/parallel_for.hpp"
#include "concurrency/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/grid_locator.hpp"
#include "test_fixtures.hpp"

namespace loctk::concurrency {
namespace {

// Runs `fn` on its own thread and fails if it has not returned within
// `limit`. A deadlocked loop can never be joined, so the process then
// exits at once: a regression fails the suite instead of hanging it.
template <typename F>
void finishes_within(std::chrono::seconds limit, const char* what, F fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "FAILED: %s did not finish within %lld s\n", what,
                 static_cast<long long>(limit.count()));
    std::fflush(nullptr);
    std::_Exit(1);
  }
  runner.join();
  finished.get();
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 0, 0, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 7, [&](std::size_t) { ++calls; });
  // begin > end is an empty range too, not a wraparound.
  parallel_for(pool, 9, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleElementRange) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::atomic<std::size_t> seen{0};
  parallel_for(pool, 41, 42, [&](std::size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen.load(), 41u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, 0, kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ExceptionFromBodyPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("body failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionDoesNotPoisonThePool) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 0, 10,
                            [](std::size_t) {
                              throw std::runtime_error("every chunk throws");
                            }),
               std::runtime_error);
  // The pool still runs later work and recorded no uncaught errors
  // (the futures captured every exception).
  EXPECT_EQ(pool.uncaught_task_errors(), 0u);
  std::atomic<int> calls{0};
  parallel_for(pool, 0, 8, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelFor, GrainLargerThanRangeRunsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  parallel_for(pool, 0, 10, [&](std::size_t) { ++calls; },
               /*grain=*/1000);
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelFor, NestedFromPoolThreadCompletes) {
  // A body running *on* a pool worker that starts another parallel_for
  // on the same pool must not deadlock. With a single outer chunk
  // (large grain) on a >= 2-thread pool, one worker blocks in the
  // inner loop's future waits while the remaining workers drain the
  // inner chunks.
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  parallel_for(
      pool, 0, 1,
      [&](std::size_t) {
        parallel_for(pool, 0, 64, [&](std::size_t) { ++inner_calls; });
      },
      /*grain=*/8);
  EXPECT_EQ(inner_calls.load(), 64);
}

TEST(ParallelFor, NestedOnOneTwoThreadPoolCompletes) {
  // Two outer chunks, each running a 4-item loop on the same 2-thread
  // pool. A loop that only queued its chunks and blocked on them would
  // hang here once both workers sat in outer bodies.
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  finishes_within(std::chrono::seconds(20), "nested parallel_for", [&] {
    parallel_for(pool, 0, 2, [&](std::size_t) {
      parallel_for(pool, 0, 4, [&](std::size_t) { ++inner_calls; });
    });
  });
  EXPECT_EQ(inner_calls.load(), 8);
}

TEST(ParallelFor, NestedFromEveryWorkerOfOnePoolCompletes) {
  // Every worker is inside a task that starts a loop on its own pool,
  // so no worker is left to pick up a queued chunk: the callers must
  // run them.
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  finishes_within(std::chrono::seconds(20), "parallel_for in pool tasks",
                  [&] {
                    std::vector<std::future<void>> tasks;
                    for (std::size_t t = 0; t < pool.thread_count(); ++t) {
                      tasks.push_back(pool.submit([&] {
                        parallel_for(pool, 0, 4,
                                     [&](std::size_t) { ++inner_calls; });
                      }));
                    }
                    for (std::future<void>& t : tasks) t.get();
                  });
  EXPECT_EQ(inner_calls.load(), 8);
}

TEST(ParallelFor, ParallelGridLocatorInsideDefaultPoolTasks) {
  // GridLocator's parallel path scores its cells with parallel_for on
  // the default pool; located from tasks that occupy every default-pool
  // worker, it must still finish, with the serial answer.
  const traindb::TrainingDatabase db = loctk::testing::make_fixture_db();
  core::GridLocatorConfig config;
  config.grid_pitch_ft = 1.0;
  config.parallel = true;
  const core::GridLocator parallel(db, geom::Rect::sized(40.0, 40.0), config);
  config.parallel = false;
  const core::GridLocator serial(db, geom::Rect::sized(40.0, 40.0), config);
  const core::Observation obs =
      loctk::testing::fixture_observation({13.0, 27.0});
  const core::LocationEstimate expected = serial.locate(obs);
  ASSERT_TRUE(expected.valid);

  ThreadPool& pool = default_pool();
  std::vector<core::LocationEstimate> got(2 * pool.thread_count());
  finishes_within(std::chrono::seconds(60), "GridLocator in pool tasks", [&] {
    std::vector<std::future<void>> tasks;
    for (std::size_t t = 0; t < got.size(); ++t) {
      tasks.push_back(
          pool.submit([&, t] { got[t] = parallel.locate(obs); }));
    }
    for (std::future<void>& t : tasks) t.get();
  });
  for (const core::LocationEstimate& est : got) {
    ASSERT_TRUE(est.valid);
    EXPECT_EQ(est.position, expected.position);
    EXPECT_EQ(est.score, expected.score);
  }
}

TEST(ParallelFor, OnePoolThreadRunsOnTheCaller) {
  // A 1-thread pool is the serial form: every index on the calling
  // thread, in order.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(pool, 0, 16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, LowestIndexExceptionWins) {
  // Every chunk but the first throws its own index; both forms rethrow
  // chunk 1's whichever thread finished first.
  ThreadPool pool(4);
  const auto throw_above_zero = [](std::size_t i) {
    if (i > 0) throw std::runtime_error(std::to_string(i));
  };
  for (int round = 0; round < 20; ++round) {
    try {
      parallel_for(pool, 0, 4, throw_above_zero);
      ADD_FAILURE() << "parallel_for threw nothing";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "1");
    }
    try {
      parallel_reduce(
          pool, 0, 4, 0,
          [&](int&, std::size_t i) { throw_above_zero(i); },
          [](int& into, int part) { into += part; });
      ADD_FAILURE() << "parallel_reduce threw nothing";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "1");
    }
  }
}

TEST(ParallelFor, NestedAcrossPoolsCompletes) {
  // Cross-pool nesting (outer bodies fan out onto a different pool)
  // has no shared queue at all and must always complete.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> calls{0};
  parallel_for(outer, 0, 4, [&](std::size_t) {
    parallel_for(inner, 0, 16, [&](std::size_t) { ++calls; });
  });
  EXPECT_EQ(calls.load(), 4 * 16);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(2);
  const int total = parallel_reduce(
      pool, 5, 5, 17, [](int& acc, std::size_t i) { acc += static_cast<int>(i); },
      [](int& into, int part) { into += part; });
  EXPECT_EQ(total, 17);
}

TEST(ParallelReduce, SumMatchesSerialAndIsThreadCountInvariant) {
  constexpr std::size_t kN = 10000;
  long expected = 0;
  for (std::size_t i = 0; i < kN; ++i) expected += static_cast<long>(i);

  for (const std::size_t threads : {1u, 2u, 7u}) {
    ThreadPool pool(threads);
    const long total = parallel_reduce(
        pool, 0, kN, 0L,
        [](long& acc, std::size_t i) { acc += static_cast<long>(i); },
        [](long& into, long part) { into += part; });
    EXPECT_EQ(total, expected) << threads << " threads";
  }
}

TEST(ParallelReduce, ChunkBoundariesAreOnePerThread) {
  // The partials merge in chunk order, and a chunk is one pool
  // thread's share of the range: 10 items on 4 threads split 3/3/3/1.
  ThreadPool pool(4);
  const std::vector<int> sizes = parallel_reduce(
      pool, 0, 10, std::vector<int>{},
      [](std::vector<int>& acc, std::size_t) {
        if (acc.empty()) acc.push_back(0);
        ++acc.back();
      },
      [](std::vector<int>& into, const std::vector<int>& part) {
        into.insert(into.end(), part.begin(), part.end());
      });
  EXPECT_EQ(sizes, (std::vector<int>{3, 3, 3, 1}));
}

TEST(ParallelReduce, ExceptionFromAccumulatePropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_reduce(
                   pool, 0, 100, 0,
                   [](int& acc, std::size_t i) {
                     if (i == 63) throw std::runtime_error("accumulate failed");
                     acc += 1;
                   },
                   [](int& into, int part) { into += part; }),
               std::runtime_error);
}

}  // namespace
}  // namespace loctk::concurrency

// Unit tests for the thread pool and data-parallel loops — the
// substrate behind parallel training-database generation and the
// fine-grid locator.

#include "concurrency/parallel_for.hpp"
#include "concurrency/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "stats/running_stats.hpp"

namespace loctk::concurrency {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultSizeIsHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 500; ++i) {
    futs.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, TasksReturningValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  parallel_for(pool, 0, touched.size(),
               [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  int runs = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  std::atomic<int> one{0};
  parallel_for(pool, 7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++one;
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 50) throw std::runtime_error("body");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, GrainLimitsChunkCount) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  // grain of 1000 over 100 items -> a single chunk; still correct.
  parallel_for(pool, 0, 100, [&](std::size_t) { ++total; }, 1000);
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  const auto total = parallel_reduce(
      pool, 0, n, std::uint64_t{0},
      [](std::uint64_t& acc, std::size_t i) { acc += i; },
      [](std::uint64_t& into, std::uint64_t part) { into += part; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(ParallelReduce, WelfordMergeIsExact) {
  ThreadPool pool(4);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(std::sin(i * 0.01) * 30.0 - 60.0);
  }
  stats::RunningStats serial;
  for (const double v : values) serial.add(v);

  const auto par = parallel_reduce(
      pool, 0, values.size(), stats::RunningStats{},
      [&](stats::RunningStats& acc, std::size_t i) { acc.add(values[i]); },
      [](stats::RunningStats& into, const stats::RunningStats& part) {
        into.merge(part);
      });
  EXPECT_EQ(par.count(), serial.count());
  EXPECT_NEAR(par.mean(), serial.mean(), 1e-10);
  EXPECT_NEAR(par.stddev(), serial.stddev(), 1e-10);
}

TEST(DefaultPool, SingletonWorks) {
  auto f = default_pool().submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  EXPECT_GE(default_pool().thread_count(), 1u);
}

// Regression: a throwing fire-and-forget task must not take the
// worker thread (and with it the whole process) down. Before post()
// grew a worker-side catch, the exception escaped worker_loop and
// std::terminate'd.
TEST(ThreadPool, PostedThrowingTaskDoesNotKillThePool) {
  ThreadPool pool(2);
  pool.post([] { throw std::runtime_error("fire and forget boom"); });
  // The pool must still run tasks afterwards — both post()ed...
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.post([&] { ran.fetch_add(1); });
  }
  // ...and submit()ed (the future also proves the workers are alive).
  EXPECT_EQ(pool.submit([] { return 41 + 1; }).get(), 42);
  while (ran.load() < 8) {
    std::this_thread::yield();
  }
  // The worker that caught the throw may not have counted it yet:
  // wait (bounded) for the count, then pin it to exactly one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pool.uncaught_task_errors() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.uncaught_task_errors(), 1u);
}

TEST(ThreadPool, ErrorCallbackSeesTheEscapedException) {
  ThreadPool pool(1);
  std::promise<std::string> seen;
  pool.set_error_callback([&](std::exception_ptr ep) {
    try {
      std::rethrow_exception(ep);
    } catch (const std::exception& e) {
      seen.set_value(e.what());
    }
  });
  pool.post([] { throw std::runtime_error("reported boom"); });
  EXPECT_EQ(seen.get_future().get(), "reported boom");
  EXPECT_EQ(pool.uncaught_task_errors(), 1u);
}

TEST(ThreadPool, ThrowingErrorCallbackIsContained) {
  ThreadPool pool(1);
  pool.set_error_callback(
      [](std::exception_ptr) { throw std::runtime_error("meta boom"); });
  pool.post([] { throw std::runtime_error("boom"); });
  // Neither the task's nor the callback's exception may kill the
  // worker; the pool still answers.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
  EXPECT_EQ(pool.uncaught_task_errors(), 1u);
}

TEST(ThreadPool, SubmitStillCapturesIntoTheFuture) {
  // submit() exceptions belong to the caller via the future; they are
  // not "uncaught" and must not hit the error callback.
  ThreadPool pool(1);
  std::atomic<int> callback_hits{0};
  pool.set_error_callback(
      [&](std::exception_ptr) { callback_hits.fetch_add(1); });
  auto f = pool.submit([]() -> int { throw std::runtime_error("mine"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  EXPECT_EQ(pool.uncaught_task_errors(), 0u);
  EXPECT_EQ(callback_hits.load(), 0);
}

// Property sweep: parallel_for result independent of thread count.
class ThreadCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCountSweep, SumIndependentOfThreads) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  std::atomic<std::uint64_t> sum{0};
  parallel_for(pool, 1, 1001,
               [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 500500u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountSweep,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace loctk::concurrency

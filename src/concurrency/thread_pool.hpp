#pragma once

/// \file thread_pool.hpp
/// A fixed-size worker pool with a shared task queue.
///
/// This is the shared-memory parallel substrate for the toolkit: the
/// Training Database Generator parses wi-scan files on all cores, and
/// the grid locators score candidate cells in parallel. The design
/// follows the usual HPC guidance: threads are created once, work is
/// submitted as value tasks, and shutdown joins everything (RAII — no
/// detached threads, no leaked futures).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace loctk::concurrency {

/// Fixed-size thread pool. Tasks run in FIFO order across workers.
/// Destruction waits for already-queued tasks to finish.
class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueue a task; the future resolves with its result (or the
  /// exception it threw).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    post([task]() { (*task)(); });
    return fut;
  }

  /// Fire-and-forget enqueue: no future, no packaged_task wrapper. If
  /// the task throws, the exception is routed to the error callback
  /// (set_error_callback) instead of terminating the worker — the pool
  /// survives and later tasks still run.
  void post(std::function<void()> task);

  /// Called (from the worker thread) with the exception of any task
  /// that threw without a future to capture it. Replaces the previous
  /// callback; pass nullptr to restore the default (count and drop).
  using ErrorCallback = std::function<void(std::exception_ptr)>;
  void set_error_callback(ErrorCallback cb);

  /// Tasks whose exceptions reached the worker loop (i.e. were not
  /// captured into a future). Includes ones forwarded to the callback.
  std::size_t uncaught_task_errors() const {
    return uncaught_errors_.load(std::memory_order_relaxed);
  }

  /// Number of tasks waiting (excluding running ones); for tests.
  std::size_t pending() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  ErrorCallback error_callback_;
  std::atomic<std::size_t> uncaught_errors_{0};
  bool stop_ = false;
};

/// The process-wide default pool (lazily created, sized to the
/// hardware). Library code that does not receive an explicit pool
/// parallelizes on this one: `load_collection` and
/// `generate_database` with a null pool, and the row fills of a
/// campus-sized `CompiledDatabase` and its `ProbabilisticLocator`
/// tables. Its loops are caller-runs (parallel_for.hpp), so a task
/// running on this pool may itself start a `parallel_for` on it.
ThreadPool& default_pool();

}  // namespace loctk::concurrency

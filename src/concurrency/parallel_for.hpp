#pragma once

/// \file parallel_for.hpp
/// Blocking data-parallel loops on top of ThreadPool.
///
/// `parallel_for` splits an index range into contiguous chunks — one
/// per pool thread by default — mirroring an OpenMP `parallel for`
/// with static chunks. `parallel_reduce` runs a thread-local
/// accumulator per chunk and merges the partials in order, so
/// reductions whose merge is exact (e.g. `RunningStats::merge`) give
/// run-to-run identical results regardless of thread count.
///
/// Both are caller-runs: the calling thread claims chunks from one
/// shared atomic index beside at most `thread_count() - 1` helper
/// tasks posted to the pool, and waits only for chunks a running
/// helper has already claimed. A 1-thread pool therefore runs the
/// whole loop on the calling thread, and a loop started from inside a
/// task of the same pool finishes even when every worker is busy: the
/// nested caller runs the chunks no idle worker picks up. Either form
/// rethrows the exception of the lowest-index chunk that threw, after
/// every chunk has run.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "concurrency/thread_pool.hpp"

namespace loctk::concurrency {

namespace detail {

/// What one call shares with its helpers: the next unclaimed chunk,
/// the count of finished chunks the caller waits on, and the
/// lowest-index failure. Helpers hold it by shared_ptr, so a helper a
/// busy pool starts only after the call returned finds no chunk left
/// and touches nothing of the caller's.
struct ChunkClaims {
  ChunkClaims(std::size_t count, void (*run_chunk)(void*, std::size_t),
              void* chunk_body)
      : chunks(count), run(run_chunk), body(chunk_body) {}

  /// Claims and runs chunks until none is left.
  void drain() {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        run(body, c);
      } catch (...) {
        std::lock_guard lock(mutex);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard lock(mutex);
        all_done.notify_all();
      }
    }
  }

  const std::size_t chunks;
  void (*const run)(void*, std::size_t);
  void* const body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t error_chunk = static_cast<std::size_t>(-1);  // under mutex
  std::exception_ptr error;                                // under mutex
};

/// Runs `chunk(c)` for every c in [0, chunks) on the calling thread
/// and up to `pool.thread_count() - 1` helpers, returns once all have
/// run, then rethrows the lowest-index chunk's exception.
template <typename Chunk>
void run_chunks(ThreadPool& pool, std::size_t chunks, Chunk& chunk) {
  const auto claims = std::make_shared<ChunkClaims>(
      chunks,
      [](void* body, std::size_t c) { (*static_cast<Chunk*>(body))(c); },
      &chunk);
  const std::size_t helpers =
      std::min(chunks, std::max<std::size_t>(1, pool.thread_count())) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.post([claims] { claims->drain(); });
  }
  claims->drain();
  std::exception_ptr error;
  {
    std::unique_lock lock(claims->mutex);
    claims->all_done.wait(lock, [&] {
      return claims->finished.load(std::memory_order_acquire) == chunks;
    });
    // Taken out, so the exception is freed on this thread even when a
    // late helper drops the last reference to the claims.
    error = std::move(claims->error);
  }
  if (error) std::rethrow_exception(error);
}

/// Items per chunk: one chunk per pool thread, never below `grain`.
inline std::size_t chunk_size(const ThreadPool& pool, std::size_t n,
                              std::size_t grain) {
  const std::size_t workers = std::max<std::size_t>(1, pool.thread_count());
  return std::max(grain, (n + workers - 1) / workers);
}

}  // namespace detail

/// Calls `body(i)` for every i in [begin, end) on the calling thread
/// and `pool`. `grain` caps the minimum chunk size.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, std::size_t grain = 1) {
  if (begin >= end) return;
  const std::size_t chunk = detail::chunk_size(pool, end - begin, grain);
  auto run = [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) body(i);
  };
  detail::run_chunks(pool, (end - begin + chunk - 1) / chunk, run);
}

/// Convenience overload using the default pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = 1) {
  parallel_for(default_pool(), begin, end, std::forward<Body>(body), grain);
}

/// Deterministic parallel reduction.
///
/// For each chunk, constructs `Acc acc = init;`, calls
/// `accumulate(acc, i)` over the chunk, then merges the chunk partials
/// left-to-right with `merge(total, partial)`. Returns the total.
template <typename Acc, typename Accumulate, typename Merge>
Acc parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                    Acc init, Accumulate&& accumulate, Merge&& merge,
                    std::size_t grain = 1) {
  if (begin >= end) return init;
  const std::size_t chunk = detail::chunk_size(pool, end - begin, grain);
  const std::size_t chunks = (end - begin + chunk - 1) / chunk;
  std::vector<std::optional<Acc>> partials(chunks);
  auto run = [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    Acc acc = init;
    for (std::size_t i = lo; i < hi; ++i) accumulate(acc, i);
    partials[c].emplace(std::move(acc));
  };
  detail::run_chunks(pool, chunks, run);
  Acc total = std::move(init);
  for (std::optional<Acc>& partial : partials) merge(total, std::move(*partial));
  return total;
}

template <typename Acc, typename Accumulate, typename Merge>
Acc parallel_reduce(std::size_t begin, std::size_t end, Acc init,
                    Accumulate&& accumulate, Merge&& merge,
                    std::size_t grain = 1) {
  return parallel_reduce(default_pool(), begin, end, std::move(init),
                         std::forward<Accumulate>(accumulate),
                         std::forward<Merge>(merge), grain);
}

}  // namespace loctk::concurrency

#pragma once

/// \file location_server.hpp
/// The multi-tenant serving core: N sites × M devices, lock-free on
/// the scan path, hot-swappable per-site snapshots.
///
/// One process serves many surveyed venues ("sites") at once. Each
/// site is a **shard** holding
///
///  * an immutable `SiteSnapshot` — a trained locator over its
///    compiled database — published through a single atomic pointer
///    and reclaimed via the shard's `EpochDomain` (epoch.hpp), so a
///    recompiled radio map can replace the live one mid-traffic with
///    zero reader locks and zero reader stalls;
///  * a `SessionTable` of per-device state (scan window, Kalman track,
///    degraded-mode counters) that deliberately *survives* swaps: a
///    republished map must not reset anyone's track;
///  * its own metrics (`serve.shard.<site>.*`: scans, swap generation,
///    epoch lag, on_scan latency) in the process registry.
///
/// The data plane (`on_scan`, `try_locate`, `locate_batch`) takes no
/// lock anywhere: site lookup is an index into a fixed array, the
/// snapshot pin is one CAS on a striped epoch slot, the session lookup
/// is lock-free open addressing, and the only "lock" ever touched is
/// the per-session spinlock that serializes scans of one device with
/// itself. The control plane (`add_site`, `swap_site`) serializes on
/// mutexes — swaps are rare and may be slow; readers must never be.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/metrics.hpp"
#include "core/location_service.hpp"
#include "core/locator.hpp"
#include "serve/epoch.hpp"
#include "serve/session_table.hpp"

namespace loctk::serve {

/// Dense site handle (index into the server's shard array).
using SiteId = std::uint32_t;

struct LocationServerConfig {
  /// Per-device session behavior (window, Kalman, debounce).
  core::LocationServiceConfig service;
  /// Hard cap on sites; the shard array is laid out once so the data
  /// plane can index it without synchronization.
  std::size_t max_sites = 256;
  /// Session-table capacity per site (rounded up to a power of two).
  std::size_t sessions_per_site = 1 << 14;
  /// Simultaneous pinned readers per shard (see EpochDomain).
  std::size_t reader_slots = 64;
};

/// The immutable unit of publication: one trained locator (which owns
/// its compiled database) plus the swap generation that produced it.
struct SiteSnapshot {
  std::shared_ptr<const core::Locator> locator;
  std::uint64_t generation = 0;
};

/// Control-plane view of one shard's health.
struct SiteStats {
  std::string name;
  std::uint64_t generation = 0;   ///< snapshot swaps + 1
  std::uint64_t epoch = 0;        ///< reclamation epoch
  std::uint64_t scans = 0;
  std::size_t sessions = 0;
  std::size_t retired_snapshots = 0;  ///< retired, not yet reclaimed
  std::uint64_t reader_stalls = 0;
  std::uint64_t sessions_rejected = 0;
  /// Scans on which the locator unwound and the fix degraded instead
  /// (`serve.shard.<site>.errors`).
  std::uint64_t errors = 0;
};

class LocationServer {
 public:
  explicit LocationServer(LocationServerConfig config = {});

  LocationServer(const LocationServer&) = delete;
  LocationServer& operator=(const LocationServer&) = delete;

  /// Stop traffic before destroying the server (readers must have
  /// unpinned; in-flight on_scan over a dying server is UB, exactly as
  /// for any object).
  ~LocationServer();

  // --- control plane (locked; rare) -------------------------------

  /// Registers a site and publishes its first snapshot (generation 1).
  /// Throws std::invalid_argument on a duplicate name, a null locator,
  /// or a full server.
  SiteId add_site(std::string name,
                  std::shared_ptr<const core::Locator> locator);

  /// Hot-swaps `site`'s snapshot under live traffic: waits out the
  /// grace period of the *previous* swap (so no reader is ever pinned
  /// across two swaps and at most one retired generation exists),
  /// publishes the new locator, retires the old snapshot into the
  /// epoch domain, and reclaims whatever became safe. In-flight scans
  /// finish on the snapshot they pinned; every scan that pins
  /// afterwards sees the new one. Returns the new generation.
  /// Thread-safe against readers by construction and against other
  /// swappers by the shard mutex; the wait costs the writer, never a
  /// reader.
  std::uint64_t swap_site(SiteId site,
                          std::shared_ptr<const core::Locator> locator);

  std::optional<SiteId> find_site(std::string_view name) const;
  std::size_t site_count() const {
    return site_count_.load(std::memory_order_acquire);
  }
  SiteStats stats(SiteId site) const;

  /// Frees retired snapshots that became safe since the last swap.
  /// Swaps already reclaim opportunistically; this is a control-plane
  /// nudge (e.g. a janitor tick) for long swap-free stretches.
  std::size_t reclaim(SiteId site);

  // --- data plane (lock-free; hot) --------------------------------

  /// Feeds one scan from `device` at `site` through the device's
  /// session against the currently published snapshot. Unknown sites,
  /// a full session table, and a locator that unwinds mid-scan all
  /// come back as an invalid, degraded fix rather than an exception —
  /// the serving loop must not unwind on ANY input. Locator unwinds
  /// are counted in `serve.shard.<site>.errors` (SiteStats::errors).
  /// One scan in metrics::kSampleEvery per thread is timed, split into
  /// the core::ScanStage stages (`serve.stage.<stage>.seconds`, and
  /// the whole in `serve.shard.<site>.on_scan.seconds`); the others
  /// read no clock.
  core::ServiceFix on_scan(SiteId site, DeviceId device,
                           const radio::ScanRecord& scan);

  /// Stateless one-shot localization against `site`'s current
  /// snapshot (no session is created).
  Result<core::LocationEstimate> try_locate(
      SiteId site, const core::Observation& obs) const;

  /// Batch localization against one pinned snapshot: the whole batch
  /// is scored by the same generation even if a swap lands mid-batch.
  std::vector<core::LocationEstimate> locate_batch(
      SiteId site, std::span<const core::Observation> obs,
      concurrency::ThreadPool* pool = nullptr) const;

  /// Current swap generation of `site` (0 for unknown sites).
  std::uint64_t generation(SiteId site) const;

  const LocationServerConfig& config() const { return config_; }

 private:
  struct Shard {
    std::string name;
    EpochDomain epochs;
    /// Owned by `owner` (and by the epoch retire list after a swap);
    /// readers dereference the raw pointer only under a ReadGuard.
    std::atomic<const SiteSnapshot*> current{nullptr};
    std::shared_ptr<const SiteSnapshot> owner;  ///< guarded by swap_mutex
    std::mutex swap_mutex;
    SessionTable sessions;
    std::atomic<std::uint64_t> generation{0};

    // Resolved once at add_site; hot path touches only atomics.
    metrics::Counter* scans_counter = nullptr;
    metrics::Counter* swaps_counter = nullptr;
    metrics::Counter* rejected_counter = nullptr;
    metrics::Counter* errors_counter = nullptr;
    metrics::Gauge* generation_gauge = nullptr;
    metrics::Gauge* epoch_lag_gauge = nullptr;
    metrics::Gauge* sessions_gauge = nullptr;
    metrics::HistogramMetric* on_scan_hist = nullptr;
    metrics::HistogramMetric* swap_hist = nullptr;

    Shard(std::size_t reader_slots, std::size_t session_capacity)
        : epochs(reader_slots), sessions(session_capacity) {}
  };

  /// nullptr for out-of-range ids (data plane treats that as a
  /// degraded scan, control plane throws).
  Shard* shard(SiteId site) const;
  Shard& checked_shard(SiteId site) const;

  LocationServerConfig config_;
  /// Fixed-size array so data-plane indexing never races growth:
  /// add_site fills sites_[n] first, then publishes n+1 with release.
  std::vector<std::unique_ptr<Shard>> sites_;
  std::atomic<std::size_t> site_count_{0};
  mutable std::mutex control_mutex_;  ///< add_site / find_site registry
  std::vector<std::string> names_;    ///< guarded by control_mutex_
};

}  // namespace loctk::serve

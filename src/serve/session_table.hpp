#pragma once

/// \file session_table.hpp
/// Open-addressed per-device session storage.
///
/// Every device talking to a site shard owns one `Session`: the
/// sliding scan window, Kalman track, and degraded-mode counters that
/// must survive snapshot swaps (a republished radio map must not reset
/// anyone's track). The table is built so concurrent *distinct*
/// devices never contend:
///
///  * fixed capacity, decided at construction — no rehash, so lookup
///    never races a table-wide move;
///  * keys claimed lock-free: a linear probe from the key's hash over
///    all `capacity()` cells either finds the device's entry or
///    CAS-claims an empty one (key 0 = empty); losers of the claim
///    race re-read and converge on the winner's entry, so a new device
///    is refused only when every cell is taken;
///  * per-session spinlock: two racing scans for the *same* device
///    serialize (a device's scans are ordered by definition); scans
///    for different devices share nothing.
///
/// A full table returns nullptr and the server degrades that scan
/// (counted in `serve.shard.*.sessions_rejected`) instead of blocking
/// or evicting — production admission control belongs above this
/// layer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/location_service.hpp"

namespace loctk::serve {

/// Device ids are opaque nonzero 64-bit values (0 marks an empty
/// table cell).
using DeviceId = std::uint64_t;

/// One device's serving state. The embedded `LocationService` is
/// unbound (no locator): each scan supplies the shard's currently
/// pinned snapshot locator instead, which is what makes the session
/// survive hot swaps.
struct Session {
  explicit Session(const core::LocationServiceConfig& config)
      : service(config) {}

  core::LocationService service;

  /// Serializes same-device scans; never contended across devices.
  void lock() {
    while (busy_.test_and_set(std::memory_order_acquire)) {
      busy_.wait(true, std::memory_order_relaxed);
    }
  }
  void unlock() {
    busy_.clear(std::memory_order_release);
    busy_.notify_one();
  }

 private:
  std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
};

class SessionTable {
 public:
  /// `capacity` is rounded up to a power of two.
  explicit SessionTable(std::size_t capacity = 1 << 14);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;
  ~SessionTable();

  /// Finds `device`'s session, creating it on first contact. Lock-free
  /// (bounded CAS probes). Returns nullptr when the device is new and
  /// the table is full. `*created`, when given, says whether this call
  /// created the session.
  Session* find_or_create(DeviceId device,
                          const core::LocationServiceConfig& config,
                          bool* created = nullptr);

  /// Lookup without creation; nullptr when absent. When the device's
  /// key is already claimed by a racing find_or_create whose session
  /// pointer is not yet published, this waits for publication (the
  /// device exists — returning nullptr would break the contract).
  Session* find(DeviceId device) const;

  /// Live sessions.
  std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<DeviceId> key{0};
    std::atomic<Session*> session{nullptr};
  };

  static std::uint64_t mix(DeviceId key);

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;  ///< capacity() - 1
  std::atomic<std::size_t> size_{0};
};

}  // namespace loctk::serve

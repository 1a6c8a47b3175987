#include "serve/session_table.hpp"

#include <algorithm>
#include <bit>
#include <thread>

namespace loctk::serve {

namespace {

std::size_t round_pow2(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(1, n));
}

}  // namespace

std::uint64_t SessionTable::mix(DeviceId key) {
  std::uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SessionTable::SessionTable(std::size_t capacity) {
  const std::size_t cells = round_pow2(capacity);
  mask_ = cells - 1;
  cells_ = std::make_unique<Cell[]>(cells);
}

SessionTable::~SessionTable() {
  for (std::size_t i = 0; i <= mask_; ++i) {
    delete cells_[i].session.load(std::memory_order_acquire);
  }
}

Session* SessionTable::find_or_create(
    DeviceId device, const core::LocationServiceConfig& config,
    bool* created) {
  if (created) *created = false;
  if (device == 0) return nullptr;
  const std::size_t start = static_cast<std::size_t>(mix(device)) & mask_;
  for (std::size_t probe = 0; probe <= mask_; ++probe) {
    Cell& cell = cells_[(start + probe) & mask_];
    DeviceId k = cell.key.load(std::memory_order_acquire);
    if (k == 0) {
      // Claim the empty cell; a losing racer re-reads and either finds
      // our key (falls through below) or keeps probing.
      if (cell.key.compare_exchange_strong(k, device,
                                           std::memory_order_acq_rel)) {
        Session* session = new Session(config);
        cell.session.store(session, std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        if (created) *created = true;
        return session;
      }
    }
    if (k == device || cell.key.load(std::memory_order_acquire) == device) {
      // Winner may still be constructing; its store is release, our
      // loop load is acquire, so the session is fully built once seen.
      for (;;) {
        Session* s = cell.session.load(std::memory_order_acquire);
        if (s) return s;
        std::this_thread::yield();
      }
    }
  }
  return nullptr;  // table full
}

Session* SessionTable::find(DeviceId device) const {
  if (device == 0) return nullptr;
  const std::size_t start = static_cast<std::size_t>(mix(device)) & mask_;
  for (std::size_t probe = 0; probe <= mask_; ++probe) {
    const Cell& cell = cells_[(start + probe) & mask_];
    const DeviceId k = cell.key.load(std::memory_order_acquire);
    if (k == 0) return nullptr;
    if (k == device) {
      // The key being visible means the device exists: the winner has
      // CAS-claimed the cell but may not have published the session
      // pointer yet. Wait for publication exactly like find_or_create
      // does — returning nullptr here would violate the "nullptr when
      // absent" contract for a device that *is* present.
      for (;;) {
        Session* s = cell.session.load(std::memory_order_acquire);
        if (s) return s;
        std::this_thread::yield();
      }
    }
  }
  return nullptr;
}

}  // namespace loctk::serve

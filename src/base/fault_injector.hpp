#pragma once

/// \file fault_injector.hpp
/// Process-wide fault-injection hooks for robustness testing.
///
/// The ingest layer promises "corrupt input yields a structured error,
/// never a crash" — a promise that is only testable if tests can make
/// I/O fail and bytes rot on demand. `FaultInjector` is that switch:
/// a singleton the file-buffering primitives consult on every read.
/// Disarmed (the default) it costs one relaxed atomic load; armed, it
/// rolls a deterministic per-call RNG against the configured
/// probabilities and either vetoes the open (simulated I/O failure) or
/// mutates the just-read bytes (truncation, bit flips) before the
/// parser ever sees them. Tests arm it through the RAII
/// `ScopedFaultInjection` so a throwing assertion can never leave the
/// process poisoned for the next test.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace loctk {

/// Knobs. All probabilities are in [0, 1] and evaluated independently
/// per call with a seeded (deterministic) generator.
struct FaultInjectorConfig {
  /// Chance that an open/read is vetoed with a simulated I/O failure.
  double io_failure_probability = 0.0;
  /// Chance that a successfully read buffer is truncated to a random
  /// prefix.
  double truncate_probability = 0.0;
  /// Chance that a successfully read buffer gets `max_bitflips`-capped
  /// random single-bit corruptions.
  double bitflip_probability = 0.0;
  int max_bitflips = 8;
  std::uint64_t seed = 0x5eed;
};

/// What the injector has done so far (for test assertions).
struct FaultInjectorStats {
  std::uint64_t calls = 0;
  std::uint64_t vetoed_opens = 0;
  std::uint64_t truncations = 0;
  std::uint64_t bitflips = 0;
};

class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Arms injection with `config` (resets the RNG and stats).
  void arm(const FaultInjectorConfig& config);
  void disarm();

  /// Lock-free; one relaxed load.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// True when this open/read should fail. Always false when disarmed.
  bool should_fail_io();

  /// Applies truncation / bit-flip corruption to `bytes` in place per
  /// the armed config; returns true when anything was mutated. No-op
  /// when disarmed.
  bool corrupt(std::string& bytes);

  FaultInjectorStats stats() const;

 private:
  FaultInjector() = default;
  std::uint64_t next_u64();  // callers hold mutex_

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  FaultInjectorConfig config_;
  FaultInjectorStats stats_;
  std::uint64_t rng_state_ = 0;
};

/// RAII arm/disarm for tests.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultInjectorConfig& config) {
    FaultInjector::instance().arm(config);
  }
  ~ScopedFaultInjection() { FaultInjector::instance().disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace loctk

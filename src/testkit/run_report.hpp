#pragma once

/// \file run_report.hpp
/// The deterministic output of a soak/replay run.
///
/// A `RunReport` is everything about a fleet replay that must NOT
/// depend on thread count, scheduling, swap timing, or wall clock:
/// scan/fix/reject tallies and the sorted per-fix error list (the
/// accuracy CDF). Two replays of the same trace produce `==`-equal
/// reports — that is the bit-for-bit acceptance gate — so anything
/// timing-flavored (on_scan latency percentiles) lives in the soak
/// harness's `SoakResult` (server_soak.hpp) beside the report, never
/// inside it. Serialization (`to_json`) prints doubles with %.17g so
/// the artifact round-trips the exact values CI compared.

#include <cstdint>
#include <string>
#include <vector>

namespace loctk::testkit {

/// Deterministic summary of one fleet replay.
struct RunReport {
  std::string scenario;
  std::uint32_t device_count = 0;
  /// Scans fed to the devices' sessions (== trace scan count).
  std::uint64_t scans_replayed = 0;
  /// Fixes with fix.valid, split into fresh and Kalman-coasted.
  std::uint64_t valid_fixes = 0;
  std::uint64_t degraded_fixes = 0;
  /// Scans that produced no valid fix (window warm-up or hard failure).
  std::uint64_t invalid_fixes = 0;
  /// Non-finite samples dropped at the service door.
  std::uint64_t rejected_samples = 0;
  /// Euclidean error (ft) of every fresh valid fix against the truth
  /// recorded in the trace, sorted ascending (the accuracy CDF).
  std::vector<double> errors_ft;

  /// Fraction of replayed scans that yielded a valid fix.
  double valid_fix_fraction() const;
  /// Fraction of valid fixes that were Kalman coasts.
  double degraded_fix_rate() const;

  double mean_error_ft() const;
  double median_error_ft() const;
  double p90_error_ft() const;
  double max_error_ft() const;
  /// Error at CDF fraction `q` in [0, 1] (nearest-rank; 0 on empty).
  double error_percentile(double q) const;

  /// Human-readable block for logs.
  std::string to_text() const;
  /// Stable JSON (sorted keys, %.17g doubles) for CI artifacts.
  std::string to_json() const;

  friend bool operator==(const RunReport&, const RunReport&) = default;
};

}  // namespace loctk::testkit

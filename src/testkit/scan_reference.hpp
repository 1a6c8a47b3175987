#pragma once

/// \file scan_reference.hpp
/// The Observation-path oracle for `LocationService::on_scan`.
///
/// The live service folds its scan window in slot space
/// (docs/ALGORITHMS.md, "Scan path in slot space"). This is the path
/// that fold must reproduce, kept as readable executable
/// documentation: a window of raw `ScanRecord`s with non-finite
/// samples, and every sample of a scan over LocationService's caps,
/// dropped at the door, `Observation::from_scans` over the
/// whole window, `Locator::try_locate(Observation)`, then the same
/// Kalman and place-debounce logic. The hostile-scan differential
/// races the two fix for fix and compares every `ServiceFix` field bit
/// for bit, plus the sample and counter tallies below.

#include <cstddef>
#include <string>
#include <vector>

#include "core/location_service.hpp"
#include "core/tracking.hpp"
#include "radio/scanner.hpp"

namespace loctk::testkit {

class ReferenceScanSession {
 public:
  explicit ReferenceScanSession(core::LocationServiceConfig config = {});

  /// One scan through the reference path; the fix LocationService
  /// must return for the same scan and locator.
  core::ServiceFix on_scan(const core::Locator& locator,
                           const radio::ScanRecord& scan);

  /// Non-finite and over-cap samples dropped so far (LocationService's
  /// rejected_samples() and its `service.rejected_samples` delta).
  std::size_t rejected_samples() const { return rejected_samples_; }
  /// Scans fed (the `service.scans` delta).
  std::size_t scans() const { return scans_; }
  /// Fixes that coasted on the Kalman track (the
  /// `service.degraded_fixes` delta).
  std::size_t degraded_fixes() const { return degraded_fixes_; }

 private:
  core::LocationServiceConfig config_;
  std::vector<radio::ScanRecord> window_;
  core::KalmanTracker kalman_;
  core::ServiceFix fix_;
  std::string candidate_place_;
  int candidate_streak_ = 0;
  std::string announced_place_;
  std::size_t rejected_samples_ = 0;
  std::size_t scans_ = 0;
  std::size_t degraded_fixes_ = 0;
};

}  // namespace loctk::testkit

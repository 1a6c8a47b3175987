#include "testkit/scan_reference.hpp"

#include <algorithm>
#include <cmath>

#include "core/observation.hpp"

namespace loctk::testkit {

ReferenceScanSession::ReferenceScanSession(core::LocationServiceConfig config)
    : config_(config), kalman_(config.kalman) {
  config_.window_scans = std::max<std::size_t>(1, config_.window_scans);
  config_.min_scans =
      std::clamp<std::size_t>(config_.min_scans, 1, config_.window_scans);
  config_.place_debounce = std::max(1, config_.place_debounce);
}

core::ServiceFix ReferenceScanSession::on_scan(const core::Locator& locator,
                                               const radio::ScanRecord& scan) {
  ++scans_;
  radio::ScanRecord clean = scan;
  const bool over_cap =
      clean.samples.size() > core::LocationService::kMaxScanSamples ||
      std::any_of(clean.samples.begin(), clean.samples.end(),
                  [](const radio::ScanSample& s) {
                    return s.bssid.size() >
                           core::LocationService::kMaxBssidBytes;
                  });
  std::erase_if(clean.samples, [&](const radio::ScanSample& s) {
    const bool bad = over_cap || !std::isfinite(s.rssi_dbm);
    if (bad) ++rejected_samples_;
    return bad;
  });
  window_.push_back(std::move(clean));
  if (window_.size() > config_.window_scans) window_.erase(window_.begin());
  fix_.window_fill = window_.size();
  fix_.degraded_reason.clear();
  if (window_.size() < config_.min_scans) {
    fix_.valid = false;
    return fix_;
  }

  const Result<core::LocationEstimate> result =
      locator.try_locate(core::Observation::from_scans(window_));
  const core::LocationEstimate est =
      result.ok() ? result.value() : core::LocationEstimate{};
  if (est.valid) {
    fix_.valid = true;
    fix_.position = config_.kalman_smoothing
                        ? kalman_.update_at(est.position, scan.timestamp_s)
                        : est.position;
  } else if (config_.kalman_smoothing && kalman_.initialized()) {
    fix_.valid = true;
    fix_.position = kalman_.predict_at(scan.timestamp_s);
    fix_.degraded_reason = result.error().to_string();
    ++degraded_fixes_;
  } else {
    fix_.valid = false;
    fix_.degraded_reason = result.error().to_string();
    return fix_;
  }

  const std::string& place = est.location_name;
  if (!place.empty()) {
    if (place == candidate_place_) {
      ++candidate_streak_;
    } else {
      candidate_place_ = place;
      candidate_streak_ = 1;
    }
    if (candidate_streak_ >= config_.place_debounce &&
        candidate_place_ != announced_place_) {
      announced_place_ = candidate_place_;
    }
  }
  fix_.place = announced_place_;
  return fix_;
}

}  // namespace loctk::testkit

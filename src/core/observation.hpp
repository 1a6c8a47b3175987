#pragma once

/// \file observation.hpp
/// A working-phase observation: the averaged RSSI vector.
///
/// Phase 2 of the paper (§3, §5.1): the client stands somewhere,
/// collects scans for a while (the paper used 1.5 minutes and "only
/// the average signal strength value of it", §6 item 2), and the
/// resulting per-AP mean vector is matched against the training
/// database. `Observation` is that vector plus enough bookkeeping
/// (counts, raw values) for the distribution-aware locators.

#include <optional>
#include <string>
#include <vector>

#include "radio/scanner.hpp"
#include "wiscan/record.hpp"

namespace loctk::core {

/// Per-AP aggregate within one observation.
struct ObservedAp {
  std::string bssid;
  double mean_dbm = 0.0;
  std::uint32_t sample_count = 0;
  /// Raw readings (dBm), kept for histogram/quantile matching.
  std::vector<double> samples_dbm;

  friend bool operator==(const ObservedAp&, const ObservedAp&) = default;
};

/// One observation: everything heard during the working-phase dwell,
/// grouped per AP and sorted by BSSID.
class Observation {
 public:
  Observation() = default;

  /// Builds from simulator scan records.
  static Observation from_scans(const std::vector<radio::ScanRecord>& scans);

  /// Builds from the rows of a wi-scan file (e.g. a replayed capture).
  static Observation from_entries(const wiscan::WiScanFile& file);

  const std::vector<ObservedAp>& aps() const { return aps_; }
  std::size_t ap_count() const { return aps_.size(); }
  bool empty() const { return aps_.empty(); }

  /// True when every per-AP mean and raw sample is a finite dBm value
  /// — the precondition for Gaussian/Welford math downstream. Scans
  /// built from parsed wi-scan rows always satisfy it (the row layer
  /// rejects non-finite rssi); hand-built observations may not.
  bool is_finite() const;

  /// Aggregate for `bssid`; nullptr when that AP was never heard.
  const ObservedAp* find(const std::string& bssid) const;

  /// Mean RSSI for `bssid`, or nullopt.
  std::optional<double> mean_of(const std::string& bssid) const;

  /// Mean-signal vector over an ordered BSSID universe; missing APs
  /// yield `missing_dbm`.
  std::vector<double> signature(const std::vector<std::string>& universe,
                                double missing_dbm = -100.0) const;

  friend bool operator==(const Observation&, const Observation&) = default;

 private:
  std::vector<ObservedAp> aps_;
};

}  // namespace loctk::core

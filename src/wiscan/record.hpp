#pragma once

/// \file record.hpp
/// In-memory representation of wi-scan data.
///
/// A *wi-scan file* (paper §4.3) is the raw capture of one survey
/// stop: every row is one AP heard in one scan pass, tagged with the
/// pass timestamp. A collection of such files — one per named
/// location — plus a location map is the input to the Training
/// Database Generator.
///
/// A survey stop hears a few dozen APs over hundreds of rows, so a
/// `WiScanFile` keeps each distinct BSSID and SSID once and its rows
/// as 32-byte records that name them by id. `WiScanEntry` is the
/// string-bearing value form of one row, for building and reading
/// files one row at a time.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "radio/scanner.hpp"

namespace loctk::wiscan {

/// One row of a wi-scan file: one AP heard during one scan pass.
struct WiScanEntry {
  double timestamp_s = 0.0;
  std::string bssid;
  std::string ssid;
  int channel = 0;
  /// Received signal strength, dBm (negative; stronger is closer to 0).
  double rssi_dbm = 0.0;

  friend bool operator==(const WiScanEntry&, const WiScanEntry&) = default;
};

/// One stored row: `bssid` and `ssid` index the file's `bssids()` and
/// `ssids()` tables.
struct WiScanRow {
  double timestamp_s = 0.0;
  /// Received signal strength, dBm.
  double rssi_dbm = 0.0;
  std::uint32_t bssid = 0;
  std::uint32_t ssid = 0;
  std::int32_t channel = 0;

  friend bool operator==(const WiScanRow&, const WiScanRow&) = default;
};
static_assert(sizeof(WiScanRow) == 32);

class WiScanInterner;

/// A parsed wi-scan file: the location label it was captured at plus
/// all rows in capture order. Strings are interned in first-heard
/// order, so two files with the same rows compare equal however they
/// were built.
struct WiScanFile {
  /// Survey location name, e.g. "room-d22" (paper §4.1 item 5).
  std::string location;

  /// Appends one row, interning its BSSID and SSID.
  void add(const WiScanEntry& entry);

  /// Row `i` in capture order, strings resolved.
  WiScanEntry entry(std::size_t i) const;

  std::size_t size() const { return rows_.size(); }

  /// All rows in capture order.
  const std::vector<WiScanRow>& rows() const { return rows_; }

  /// Distinct BSSIDs heard, in first-heard order; `WiScanRow::bssid`
  /// indexes it.
  const std::vector<std::string>& bssids() const { return bssids_; }

  /// Distinct SSIDs (an absent `ssid=` is ""), in first-seen order.
  const std::vector<std::string>& ssids() const { return ssids_; }

  /// Number of distinct scan passes (timestamp changes, in order).
  std::size_t scan_count() const;

  friend bool operator==(const WiScanFile&, const WiScanFile&) = default;

 private:
  // The parser interns through a hash table of its own.
  friend class WiScanInterner;

  std::vector<std::string> bssids_;
  std::vector<std::string> ssids_;
  std::vector<WiScanRow> rows_;
};

/// Appends simulator scan records to `file` as wi-scan rows, every
/// row labelled with network name `ssid`.
void append_scans(WiScanFile& file,
                  const std::vector<radio::ScanRecord>& scans,
                  const std::string& ssid = "loctk");

}  // namespace loctk::wiscan

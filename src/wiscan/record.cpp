#include "wiscan/record.hpp"

#include <algorithm>

namespace loctk::wiscan {

namespace {

// Id of `key` in `table`, appended when absent. Row-at-a-time callers
// build small files, so a scan of the table is all this needs; the
// parser interns through a hash table instead.
std::uint32_t intern(std::vector<std::string>& table, const std::string& key) {
  const auto it = std::find(table.begin(), table.end(), key);
  if (it == table.end()) {
    table.push_back(key);
    return static_cast<std::uint32_t>(table.size() - 1);
  }
  return static_cast<std::uint32_t>(it - table.begin());
}

}  // namespace

void WiScanFile::add(const WiScanEntry& entry) {
  rows_.push_back({entry.timestamp_s, entry.rssi_dbm,
                   intern(bssids_, entry.bssid), intern(ssids_, entry.ssid),
                   entry.channel});
}

WiScanEntry WiScanFile::entry(std::size_t i) const {
  const WiScanRow& row = rows_.at(i);
  return {row.timestamp_s, bssids_[row.bssid], ssids_[row.ssid], row.channel,
          row.rssi_dbm};
}

std::size_t WiScanFile::scan_count() const {
  std::size_t count = 0;
  double last = -1.0;
  bool first = true;
  for (const WiScanRow& row : rows_) {
    if (first || row.timestamp_s != last) {
      ++count;
      last = row.timestamp_s;
      first = false;
    }
  }
  return count;
}

void append_scans(WiScanFile& file,
                  const std::vector<radio::ScanRecord>& scans,
                  const std::string& ssid) {
  // One entry reused across rows keeps its string capacity.
  WiScanEntry e;
  e.ssid = ssid;
  for (const radio::ScanRecord& scan : scans) {
    for (const radio::ScanSample& s : scan.samples) {
      e.timestamp_s = scan.timestamp_s;
      e.bssid = s.bssid;
      e.channel = s.channel;
      e.rssi_dbm = s.rssi_dbm;
      file.add(e);
    }
  }
}

}  // namespace loctk::wiscan

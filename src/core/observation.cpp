#include "core/observation.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace loctk::core {

namespace {

// Shared grouping: BSSID -> readings, already sorted by the map.
std::vector<ObservedAp> to_aps(
    const std::map<std::string, std::vector<double>>& grouped) {
  std::vector<ObservedAp> aps;
  aps.reserve(grouped.size());
  for (const auto& [bssid, samples] : grouped) {
    ObservedAp ap;
    ap.bssid = bssid;
    ap.sample_count = static_cast<std::uint32_t>(samples.size());
    double sum = 0.0;
    for (const double s : samples) sum += s;
    ap.mean_dbm =
        samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
    ap.samples_dbm = samples;
    aps.push_back(std::move(ap));
  }
  return aps;
}

}  // namespace

Observation Observation::from_scans(
    const std::vector<radio::ScanRecord>& scans) {
  std::map<std::string, std::vector<double>> grouped;
  for (const radio::ScanRecord& scan : scans) {
    for (const radio::ScanSample& s : scan.samples) {
      grouped[s.bssid].push_back(s.rssi_dbm);
    }
  }
  Observation obs;
  obs.aps_ = to_aps(grouped);
  return obs;
}

Observation Observation::from_entries(const wiscan::WiScanFile& file) {
  std::map<std::string, std::vector<double>> grouped;
  for (const wiscan::WiScanRow& row : file.rows()) {
    grouped[file.bssids()[row.bssid]].push_back(row.rssi_dbm);
  }
  Observation obs;
  obs.aps_ = to_aps(grouped);
  return obs;
}

bool Observation::is_finite() const {
  for (const ObservedAp& ap : aps_) {
    if (!std::isfinite(ap.mean_dbm)) return false;
    for (const double s : ap.samples_dbm) {
      if (!std::isfinite(s)) return false;
    }
  }
  return true;
}

const ObservedAp* Observation::find(const std::string& bssid) const {
  const auto it = std::lower_bound(
      aps_.begin(), aps_.end(), bssid,
      [](const ObservedAp& a, const std::string& b) { return a.bssid < b; });
  if (it == aps_.end() || it->bssid != bssid) return nullptr;
  return &*it;
}

std::optional<double> Observation::mean_of(const std::string& bssid) const {
  const ObservedAp* ap = find(bssid);
  if (!ap) return std::nullopt;
  return ap->mean_dbm;
}

std::vector<double> Observation::signature(
    const std::vector<std::string>& universe, double missing_dbm) const {
  std::vector<double> out;
  out.reserve(universe.size());
  for (const std::string& bssid : universe) {
    const auto m = mean_of(bssid);
    out.push_back(m.value_or(missing_dbm));
  }
  return out;
}

}  // namespace loctk::core

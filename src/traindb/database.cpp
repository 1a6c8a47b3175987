#include "traindb/database.hpp"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_set>

namespace loctk::traindb {

const ApStatistics* TrainingPoint::find(const std::string& bssid) const {
  // per_ap is sorted by BSSID (add_point enforces it).
  const auto it = std::lower_bound(
      per_ap.begin(), per_ap.end(), bssid,
      [](const ApStatistics& s, const std::string& b) {
        return s.bssid < b;
      });
  return it == per_ap.end() || it->bssid != bssid ? nullptr : &*it;
}

std::vector<double> TrainingPoint::signature(
    const std::vector<std::string>& universe, double missing_dbm) const {
  std::vector<double> out;
  out.reserve(universe.size());
  for (const std::string& bssid : universe) {
    const ApStatistics* s = find(bssid);
    out.push_back(s ? s->mean_dbm : missing_dbm);
  }
  return out;
}

TrainingDatabase TrainingDatabase::from_points(
    std::vector<TrainingPoint> points, std::string site_name) {
  TrainingDatabase db;
  db.site_name_ = std::move(site_name);

  // Dedupe through a hash set of views into the points' own strings,
  // so only the distinct BSSIDs are sorted and each is built once.
  // (The generator emits per_ap already sorted.)
  std::unordered_set<std::string_view> seen;
  std::vector<std::string_view> universe;
  std::vector<const std::string*> names;
  names.reserve(points.size());
  const auto by_bssid = [](const ApStatistics& a, const ApStatistics& b) {
    return a.bssid < b.bssid;
  };
  for (TrainingPoint& point : points) {
    if (!std::is_sorted(point.per_ap.begin(), point.per_ap.end(), by_bssid)) {
      std::sort(point.per_ap.begin(), point.per_ap.end(), by_bssid);
    }
    for (const ApStatistics& s : point.per_ap) {
      if (seen.insert(s.bssid).second) universe.push_back(s.bssid);
    }
    names.push_back(&point.location);
  }
  std::sort(universe.begin(), universe.end());

  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  const auto dup = std::adjacent_find(
      names.begin(), names.end(),
      [](const std::string* a, const std::string* b) { return *a == *b; });
  if (dup != names.end()) {
    throw DatabaseError("TrainingDatabase: duplicate location: " + **dup);
  }

  db.universe_.assign(universe.begin(), universe.end());
  db.points_ = std::move(points);
  return db;
}

void TrainingDatabase::add_point(TrainingPoint point) {
  if (find(point.location) != nullptr) {
    throw DatabaseError("TrainingDatabase: duplicate location: " +
                        point.location);
  }
  std::sort(point.per_ap.begin(), point.per_ap.end(),
            [](const ApStatistics& a, const ApStatistics& b) {
              return a.bssid < b.bssid;
            });
  for (const ApStatistics& s : point.per_ap) {
    const auto it =
        std::lower_bound(universe_.begin(), universe_.end(), s.bssid);
    if (it == universe_.end() || *it != s.bssid) {
      universe_.insert(it, s.bssid);
    }
  }
  points_.push_back(std::move(point));
}

std::optional<std::size_t> TrainingDatabase::bssid_index(
    const std::string& bssid) const {
  const auto it =
      std::lower_bound(universe_.begin(), universe_.end(), bssid);
  if (it == universe_.end() || *it != bssid) return std::nullopt;
  return static_cast<std::size_t>(std::distance(universe_.begin(), it));
}

const TrainingPoint* TrainingDatabase::find(
    const std::string& location) const {
  const auto it = std::find_if(
      points_.begin(), points_.end(),
      [&](const TrainingPoint& p) { return p.location == location; });
  return it == points_.end() ? nullptr : &*it;
}

const TrainingPoint* TrainingDatabase::nearest_point(geom::Vec2 p) const {
  const TrainingPoint* best = nullptr;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const TrainingPoint& tp : points_) {
    const double d2 = geom::distance2(tp.position, p);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = &tp;
    }
  }
  return best;
}

bool TrainingDatabase::has_samples() const {
  return std::any_of(points_.begin(), points_.end(), [](const auto& tp) {
    return std::any_of(
        tp.per_ap.begin(), tp.per_ap.end(),
        [](const ApStatistics& s) { return !s.samples_centi_dbm.empty(); });
  });
}

void TrainingDatabase::strip_samples() {
  for (TrainingPoint& tp : points_) {
    for (ApStatistics& s : tp.per_ap) {
      s.samples_centi_dbm.clear();
      s.samples_centi_dbm.shrink_to_fit();
    }
  }
}

}  // namespace loctk::traindb

#pragma once

/// \file database.hpp
/// The training database: every training point plus the BSSID
/// universe, with lookup helpers used by all locators.
///
/// "Training databases are really collections of observation records,
/// and are easier to work with than wi-scan file collections and
/// location maps because they are compressed ... and they can be
/// loaded into memory more quickly" (paper §4.3). The compression and
/// fast load live in codec.hpp; this type is the in-memory form.

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "traindb/training_point.hpp"

namespace loctk::traindb {

class DatabaseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// In-memory training database.
class TrainingDatabase {
 public:
  /// Adds a point; throws DatabaseError on duplicate location names.
  /// The per-AP list is sorted by BSSID and the universe updated.
  void add_point(TrainingPoint point);

  /// Bulk constructor: equivalent to add_point() in order, but builds
  /// the BSSID universe in one pass — a hash-set dedupe over views of
  /// the points' strings, one sort of the distinct BSSIDs, one string
  /// each — instead of a sorted insertion per <point, AP> pair. This is
  /// the ingest path: the generator builds all points first and
  /// assembles the database in one shot. Throws DatabaseError on
  /// duplicate location names.
  static TrainingDatabase from_points(std::vector<TrainingPoint> points,
                                      std::string site_name = {});

  const std::vector<TrainingPoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// All BSSIDs heard anywhere, sorted.
  const std::vector<std::string>& bssid_universe() const {
    return universe_;
  }

  /// Index of `bssid` in the universe; nullopt when unknown.
  std::optional<std::size_t> bssid_index(const std::string& bssid) const;

  /// Point by location name; nullptr when absent.
  const TrainingPoint* find(const std::string& location) const;

  /// Training point whose *position* is nearest to `p`; nullptr when
  /// empty. This defines the "correct" answer for the paper's
  /// valid-estimation metric: an estimate is valid when the locator
  /// returns the training point nearest to where the client stood.
  const TrainingPoint* nearest_point(geom::Vec2 p) const;

  /// Free-form site metadata carried through serialization.
  const std::string& site_name() const { return site_name_; }
  void set_site_name(std::string name) { site_name_ = std::move(name); }

  /// True when any point retains raw samples.
  bool has_samples() const;

  /// Drops raw samples everywhere (stats remain).
  void strip_samples();

  friend bool operator==(const TrainingDatabase&,
                         const TrainingDatabase&) = default;

 private:
  std::string site_name_;
  std::vector<TrainingPoint> points_;
  std::vector<std::string> universe_;
};

}  // namespace loctk::traindb

#pragma once

/// \file floor_selector.hpp
/// Floor determination + within-floor localization for buildings.
///
/// With one training database per floor (each surveyed through a
/// `radio::FloorView`, so cross-floor APs appear in it with their
/// slab-attenuated means), floor selection falls out of the paper's
/// own machinery: the floor whose best training point explains the
/// observation with the highest likelihood wins, and the winning
/// floor's locator supplies the in-floor position.
///
/// Two correctness details matter at campus cardinality:
///
/// - Per-floor scoring rides the locators' compiled `locate()` path,
///   the exact sparse sweep over the cells the observation heard,
///   never a dense `score_all` sweep per floor.
/// - Floors are compared on a **per-term** basis: each floor's best
///   log-likelihood is divided by the number of scored terms (common
///   APs + missing-AP penalties) behind it. Raw sums are not on a
///   common scale across floors — a floor with a richer AP universe
///   accumulates more penalty terms for the same observation, so the
///   raw comparison systematically favors small universes. Non-finite
///   per-floor scores (a NaN observation reaching the kernels) are
///   rejected explicitly instead of silently corrupting the fold.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/probabilistic.hpp"
#include "radio/campus.hpp"
#include "radio/multifloor.hpp"
#include "wiscan/location_map.hpp"

namespace loctk::core {

/// One multi-floor fix.
struct FloorEstimate {
  bool valid = false;
  std::size_t floor = 0;
  /// In-floor estimate from the winning floor's locator.
  LocationEstimate estimate;
  /// Softmax probability of the winning floor vs the others (1.0 when
  /// there is only one floor), over the per-term normalized scores.
  double floor_confidence = 0.0;
};

/// Selects the floor by per-floor maximum likelihood.
class FloorSelector {
 public:
  /// `databases[f]` is floor f's training database; all must outlive
  /// the selector. Compiles each floor once. Throws
  /// std::invalid_argument when empty or any entry is null.
  explicit FloorSelector(
      std::vector<const traindb::TrainingDatabase*> databases,
      ProbabilisticConfig config = {});

  /// Shares existing compilations (the serve path keeps one compiled
  /// snapshot per floor shard; selection must not recompile them).
  explicit FloorSelector(
      std::vector<std::shared_ptr<const CompiledDatabase>> compiled,
      ProbabilisticConfig config = {});

  /// Floor + position for one observation.
  FloorEstimate locate(const Observation& obs) const;

  /// Per-floor best log-likelihood per scored term (diagnostics;
  /// aligned by floor). Floors with no valid estimate — no universe
  /// overlap, or a non-finite score — carry -infinity.
  std::vector<double> floor_scores(const Observation& obs) const;

  std::size_t floor_count() const { return locators_.size(); }

  /// The winning floor's locator (for in-floor diagnostics).
  const ProbabilisticLocator& floor_locator(std::size_t f) const {
    return *locators_.at(f);
  }

 private:
  /// Best estimate on floor `f` plus its per-term normalized score;
  /// -infinity (and an invalid estimate) when the floor produced no
  /// finite answer.
  double scored_locate(std::size_t f, const Observation& obs,
                       LocationEstimate* est) const;

  std::vector<std::unique_ptr<ProbabilisticLocator>> locators_;
  /// Per floor: winning-location name -> trained AP count, so the
  /// normalization denominator costs one hash lookup instead of a
  /// point-list scan per fix.
  std::vector<std::unordered_map<std::string, int>> trained_counts_;
};

/// Surveys every floor of `building` on `map` (the same grid per
/// floor) and returns one training database per floor. Each floor's
/// survey runs through a `FloorView`, so cross-floor APs land in the
/// databases exactly as a real multi-floor survey would record them.
std::vector<traindb::TrainingDatabase> train_building(
    const radio::Building& building, const wiscan::LocationMap& map,
    int scans_per_point, std::uint64_t seed,
    const radio::ChannelConfig& channel = {});

/// Surveys every (building, floor) of `campus` at that building's room
/// centers and returns one training database per flat floor index
/// (`Campus::flat_floor` order). Surveys run through
/// `CampusFloorView`s, so cross-floor and cross-building APs appear
/// with their slab/facade-attenuated means. Location names are
/// campus-unique ("B1F2-R17"), so the per-floor databases can also be
/// merged into one campus-wide database.
std::vector<traindb::TrainingDatabase> train_campus(
    const radio::Campus& campus, int scans_per_point, std::uint64_t seed,
    const radio::ChannelConfig& channel = {});

/// Merges per-floor databases (campus-unique location names required)
/// into one database whose universe is the union — the single
/// compilation the flat locators score at campus cardinality.
traindb::TrainingDatabase merge_floor_databases(
    const std::vector<traindb::TrainingDatabase>& floors,
    std::string site_name);

}  // namespace loctk::core

#pragma once

/// \file place_recognition.hpp
/// FAB-MAP-style place recognition over WiFi detection vectors.
///
/// The probabilistic locator (§5.1) scores *signal strengths*, which
/// makes it sensitive to per-device RSSI calibration offsets and to
/// the exact dBm a churned AP radiates. Place recognition, in the
/// spirit of "Adopting the FAB-MAP algorithm for indoor localization
/// with WiFi fingerprints" (arXiv 1611.02054), scores *detections*:
/// each training point k is a discrete place with a Bernoulli
/// visibility model per universe slot i,
///
///   theta_ki = P(AP i heard | place k)
///            = (sample_count + alpha) / (scan_count + 2 alpha)
///
/// estimated from the survey's per-<point, AP> detection counts
/// (`ApStatistics::sample_count` / `scan_count`, Laplace-smoothed),
/// and an observation is the binary vector of which universe slots it
/// occupies. The naive-Bayes log-score of place k is
///
///   score(k) = sum_i w_i [ x_i log theta_ki + (1-x_i) log(1-theta_ki) ]
///
/// FAB-MAP's contribution is that raw naive Bayes over-counts: APs
/// that always appear together (same room, same closet) are near-
/// duplicate evidence. We keep its Chow-Liu insight in weight form:
/// each slot's strongest-mutual-information partner is found over the
/// co-occurrence structure of the training places, and the slot's
/// evidence weight is discounted by how much of its entropy that
/// partner already explains,
///
///   w_i = max(min_weight, 1 - I(i; parent_i) / min(H_i, H_parent)).
///
/// Because only detections matter, the locator is invariant to
/// per-device RSSI offsets — exactly the campus fleet regime — at the
/// cost of coarser discrimination between nearby places on one floor.
///
/// `locate()` runs a dense base-plus-delta gather over compiled tables
/// (O(observed slots) per place). The differential oracle pins it
/// against a readable string-keyed score — a three-way sorted merge
/// over universe, trained list, and observation that reads only the
/// per-slot `evidence()` weights — which lives in
/// testkit/locator_reference.hpp.

#include <memory>
#include <string>
#include <vector>

#include "core/compiled_db.hpp"
#include "core/locator.hpp"

namespace loctk::core {

/// Tuning knobs for the detection model.
struct PlaceRecognitionConfig {
  /// Laplace pseudo-count on the Bernoulli visibility estimates; also
  /// the false-detection prior at untrained <place, AP> pairs.
  double alpha = 1.0;
  /// Clamp on theta away from 0/1 (a detector is never perfect), so
  /// no single slot can veto a place with a -inf term.
  double theta_clamp = 1e-3;
  /// Floor on the co-occurrence evidence discount: even a slot fully
  /// explained by its partner keeps this fraction of its weight.
  double min_weight = 0.25;
  /// Observations occupying fewer than this many universe slots are
  /// rejected as degenerate (same gate as ProbabilisticConfig).
  int min_common_aps = 1;
};

/// Co-occurrence diagnostics for one universe slot (docs/tests).
struct SlotEvidence {
  /// Strongest-MI partner slot, or -1 when the slot has no partner
  /// (degenerate marginal or a universe of one).
  int parent = -1;
  /// Mutual information with the parent, in nats.
  double mutual_information = 0.0;
  /// Final evidence weight in [min_weight, 1].
  double weight = 1.0;
};

/// The FAB-MAP-style locator: arg-max over discrete places.
class PlaceRecognitionLocator : public CompiledLocator {
 public:
  /// Compiles the database privately. `db` must outlive the locator.
  explicit PlaceRecognitionLocator(const traindb::TrainingDatabase& db,
                                   PlaceRecognitionConfig config = {});

  /// Shares an existing compilation.
  explicit PlaceRecognitionLocator(
      std::shared_ptr<const CompiledDatabase> compiled,
      PlaceRecognitionConfig config = {});

  std::string name() const override { return "place-recognition"; }

  /// Per-slot co-occurrence evidence (aligned with the universe).
  const SlotEvidence& evidence(std::size_t slot) const {
    return evidence_[slot];
  }

  const PlaceRecognitionConfig& config() const { return config_; }

 protected:
  LocationEstimate locate_compiled(
      const CompiledObservation& q) const override;

 private:
  void build_model();

  PlaceRecognitionConfig config_;
  /// Per-point survey pass count (max per-AP scan_count; >= 1).
  std::vector<double> point_scans_;
  /// Per-slot evidence weights and their provenance.
  std::vector<SlotEvidence> evidence_;
  /// score(k | nothing observed) = sum_i w_i log(1 - theta_ki).
  std::vector<double> base_;
  /// Row-major points x universe: w_i (log theta_ki - log(1-theta_ki)),
  /// added per observed slot.
  std::vector<double> delta_;
};

}  // namespace loctk::core

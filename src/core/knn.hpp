#pragma once

/// \file knn.hpp
/// Deterministic signal-space nearest-neighbor locators (RADAR).
///
/// The classic baseline the paper's probabilistic approach descends
/// from: treat the mean-RSSI vector as a point in signal space and
/// return the training point whose signature is Euclidean-closest
/// (NNSS, Bahl & Padmanabhan 2000). The k-NN variant averages the k
/// best training positions, optionally weighted by inverse distance,
/// which can land *between* training points — something the paper's
/// §5.1 locator cannot do.

#include "core/compiled_db.hpp"
#include "core/locator.hpp"

namespace loctk::core {

struct KnnConfig {
  int k = 1;
  /// Weight neighbors by 1/(signal distance + epsilon) instead of
  /// uniformly.
  bool inverse_distance_weighting = true;
  double weighting_epsilon = 1e-3;
  /// Sentinel RSSI for APs missing on either side (dBm).
  double missing_dbm = -100.0;
};

/// k-nearest-neighbor in signal space. k = 1 gives plain NNSS.
///
/// locate() sweeps a dense `points x universe` signature matrix with
/// missing APs pre-filled, so the inner loop is a plain squared
/// distance between double vectors. The string-keyed reference
/// distance the differential oracle checks it against lives in
/// testkit/locator_reference.hpp.
class KnnLocator : public CompiledLocator {
 public:
  explicit KnnLocator(const traindb::TrainingDatabase& db,
                      KnnConfig config = {});

  /// Shares an existing compilation.
  explicit KnnLocator(std::shared_ptr<const CompiledDatabase> compiled,
                      KnnConfig config = {});

  std::string name() const override;

  const KnnConfig& config() const { return config_; }

 protected:
  LocationEstimate locate_compiled(
      const CompiledObservation& q) const override;

 private:
  KnnConfig config_;
  /// Row-major points x row_stride() mean signatures with
  /// `missing_dbm` filled at untrained slots; 64-byte aligned, and
  /// pad cells are 0.0 on both the matrix and the query side so the
  /// vectorized squared distance sees exact zero deltas there.
  simd::AlignedDoubles filled_;
};

}  // namespace loctk::core

#pragma once

/// \file ssd_locator.hpp
/// Signal-Strength-Difference fingerprinting: device-independent
/// matching.
///
/// Different NICs report the same channel several dB apart, so a
/// database trained with one device mislocates queries from another —
/// every reading is shifted by the device pair's offset. The SSD
/// family of methods (referenced in the fingerprinting literature the
/// paper sits in) cancels the offset by matching *differences* of
/// signal strengths rather than absolute values: subtracting each
/// signature's own mean leaves a vector any constant offset cannot
/// move. This locator is k-NN in that mean-centered space; with
/// homogeneous hardware it behaves like plain k-NN, and under a
/// device offset it is invariant by construction (see the tests and
/// `bench/ext_device`).

#include "core/compiled_db.hpp"
#include "core/locator.hpp"

namespace loctk::core {

struct SsdConfig {
  int k = 3;
  bool inverse_distance_weighting = true;
  double weighting_epsilon = 1e-3;
  /// A training point must share at least this many APs with the
  /// observation for a meaningful difference signature.
  int min_common_aps = 2;
};

/// k-NN over mean-centered (offset-invariant) signatures. Distances
/// are computed over the APs present on *both* sides, with each
/// side's mean over that common subset removed. locate() runs the
/// arithmetic as a masked dense kernel over the compiled matrices; the
/// string-keyed reference distance the differential oracle checks it
/// against lives in testkit/locator_reference.hpp.
class SsdLocator : public CompiledLocator {
 public:
  /// `db` must outlive the locator.
  explicit SsdLocator(const traindb::TrainingDatabase& db,
                      SsdConfig config = {});

  /// Shares an existing compilation.
  explicit SsdLocator(std::shared_ptr<const CompiledDatabase> compiled,
                      SsdConfig config = {});

  std::string name() const override;

  const SsdConfig& config() const { return config_; }

 protected:
  LocationEstimate locate_compiled(
      const CompiledObservation& q) const override;

 private:
  SsdConfig config_;
};

}  // namespace loctk::core

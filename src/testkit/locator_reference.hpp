#pragma once

/// \file locator_reference.hpp
/// The string-keyed reference scorers of the fingerprint locators.
///
/// Each compiled locator in `src/core` scores a CompiledObservation
/// with dense or sparse kernels over interned slots. The functions here
/// compute the same math the readable way, over BSSID strings, an
/// `Observation` and a `TrainingPoint`, and touch no compiled table.
/// They are the oracles the differential oracle (testkit/
/// differential.hpp), the unit tests and `perf_score_kernel`'s
/// reference rows race the locators against, kept beside the scan-path
/// and wi-scan parser oracles. Trained state is read only through the
/// locators' public accessors: `pooled_sigma_db` and `evidence(slot)`.

#include <cstddef>

#include "core/histogram_locator.hpp"
#include "core/knn.hpp"
#include "core/observation.hpp"
#include "core/place_recognition.hpp"
#include "core/probabilistic.hpp"
#include "core/ssd_locator.hpp"
#include "traindb/database.hpp"

namespace loctk::testkit {

/// §5.1 log-likelihood of `obs` at `point` under `locator`'s config and
/// pooled sigmas: one sorted two-pointer merge over the observation and
/// the point's per-AP list, a Gaussian log-pdf per common AP and the
/// missing-AP penalty per AP heard on one side only. `common_aps` and
/// `penalized_aps`, when given, receive the two counts.
double reference_log_likelihood(const core::ProbabilisticLocator& locator,
                                const core::Observation& obs,
                                const traindb::TrainingPoint& point,
                                int* common_aps = nullptr,
                                int* penalized_aps = nullptr);

/// Place-recognition score of `obs` at training point `p` of
/// `locator.database()`: one pass over the sorted BSSID universe,
/// recomputing every theta from the point's `ApStatistics` and
/// deciding detected/undetected by merging against the observation,
/// weighted by `locator.evidence(slot)`. `common_aps`, when given,
/// receives the number of observed APs inside the universe.
double reference_place_score(const core::PlaceRecognitionLocator& locator,
                             const core::Observation& obs, std::size_t p,
                             int* common_aps = nullptr);

/// Euclidean signal-space distance between `obs` and `point` over
/// `db`'s BSSID universe, with `config.missing_dbm` standing in for an
/// AP either side lacks (k-NN / NNSS).
double reference_signal_distance(const traindb::TrainingDatabase& db,
                                 const core::KnnConfig& config,
                                 const core::Observation& obs,
                                 const traindb::TrainingPoint& point);

/// Offset-invariant SSD distance between `obs` and `point`: over the
/// APs on both sides, each side's mean removed; +infinity when they
/// share fewer than `config.min_common_aps` APs. Pass the config as the
/// locator holds it (`SsdLocator::config()`), which clamps k and
/// min_common_aps to at least 1.
double reference_ssd_distance(const core::SsdConfig& config,
                              const core::Observation& obs,
                              const traindb::TrainingPoint& point);

/// Histogram log-likelihood of `obs`'s raw readings at training point
/// `point_index` of `db`, which must retain samples: each of the
/// point's APs is histogrammed from its retained samples under
/// `config`, every reading scored by its smoothed bin probability (the
/// mean when the observation kept no readings) and averaged per AP,
/// plus the missing-AP penalty per AP heard on one side only.
double reference_histogram_log_likelihood(
    const traindb::TrainingDatabase& db,
    const core::HistogramLocatorConfig& config, const core::Observation& obs,
    std::size_t point_index);

}  // namespace loctk::testkit

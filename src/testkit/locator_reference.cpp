#include "testkit/locator_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/gaussian.hpp"
#include "stats/histogram.hpp"

namespace loctk::testkit {

double reference_log_likelihood(const core::ProbabilisticLocator& locator,
                                const core::Observation& obs,
                                const traindb::TrainingPoint& point,
                                int* common_aps, int* penalized_aps) {
  const core::ProbabilisticConfig& config = locator.config();
  double total = 0.0;
  int common = 0;
  int penalized = 0;

  // Both sides are sorted by BSSID: a single merge visits every AP
  // present on either side exactly once.
  const auto& trained = point.per_ap;
  const auto& observed = obs.aps();
  std::size_t t = 0, o = 0;
  while (t < trained.size() || o < observed.size()) {
    int cmp;
    if (t == trained.size()) {
      cmp = 1;
    } else if (o == observed.size()) {
      cmp = -1;
    } else {
      cmp = trained[t].bssid.compare(observed[o].bssid);
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    if (cmp == 0) {
      stats::Gaussian g = trained[t].gaussian(config.sigma_floor_db);
      if (config.use_pooled_sigma) {
        g.sigma = locator.pooled_sigma_db(trained[t].bssid);
      }
      total += g.log_pdf(observed[o].mean_dbm);
      ++common;
      ++t;
      ++o;
    } else {
      // Trained-but-unheard or heard-but-untrained: either way the
      // AP's visibility disagrees.
      total += config.missing_ap_log_penalty;
      ++penalized;
      cmp < 0 ? ++t : ++o;
    }
  }
  if (common_aps) *common_aps = common;
  if (penalized_aps) *penalized_aps = penalized;
  return total;
}

double reference_place_score(const core::PlaceRecognitionLocator& locator,
                             const core::Observation& obs, std::size_t p,
                             int* common_aps) {
  const core::PlaceRecognitionConfig& config = locator.config();
  const traindb::TrainingDatabase& db = locator.database();
  const auto& universe = db.bssid_universe();
  const traindb::TrainingPoint& tp = db.points()[p];
  auto clamp_theta = [&](double th) {
    return std::clamp(th, config.theta_clamp, 1.0 - config.theta_clamp);
  };

  double scans = 1.0;
  for (const traindb::ApStatistics& ap : tp.per_ap) {
    scans = std::max(scans, static_cast<double>(ap.scan_count));
  }
  const double alpha = config.alpha;
  const double prior = clamp_theta(alpha / (scans + 2.0 * alpha));

  // Universe, trained list, and observation are all BSSID-sorted: one
  // three-way merge decides each slot's theta and detection bit.
  const auto& trained = tp.per_ap;
  const auto& observed = obs.aps();
  std::size_t t = 0, o = 0;
  double score = 0.0;
  int common = 0;
  for (std::size_t slot = 0; slot < universe.size(); ++slot) {
    const std::string& bssid = universe[slot];
    double th = prior;
    if (t < trained.size() && trained[t].bssid == bssid) {
      const double s = trained[t].scan_count > 0
                           ? static_cast<double>(trained[t].scan_count)
                           : scans;
      th = clamp_theta(
          (static_cast<double>(trained[t].sample_count) + alpha) /
          (s + 2.0 * alpha));
      ++t;
    }
    while (o < observed.size() && observed[o].bssid < bssid) ++o;
    const bool detected = o < observed.size() && observed[o].bssid == bssid;
    if (detected) {
      ++o;
      ++common;
    }
    const double w = locator.evidence(slot).weight;
    score += detected ? w * std::log(th) : w * std::log(1.0 - th);
  }
  if (common_aps) *common_aps = common;
  return score;
}

double reference_signal_distance(const traindb::TrainingDatabase& db,
                                 const core::KnnConfig& config,
                                 const core::Observation& obs,
                                 const traindb::TrainingPoint& point) {
  double sum2 = 0.0;
  for (const std::string& bssid : db.bssid_universe()) {
    const traindb::ApStatistics* trained = point.find(bssid);
    const auto observed = obs.mean_of(bssid);
    const double a = trained ? trained->mean_dbm : config.missing_dbm;
    const double b = observed.value_or(config.missing_dbm);
    sum2 += (a - b) * (a - b);
  }
  return std::sqrt(sum2);
}

double reference_ssd_distance(const core::SsdConfig& config,
                              const core::Observation& obs,
                              const traindb::TrainingPoint& point) {
  // Collect readings for APs present on both sides.
  std::vector<double> o, t;
  for (const traindb::ApStatistics& s : point.per_ap) {
    if (const auto observed = obs.mean_of(s.bssid)) {
      o.push_back(*observed);
      t.push_back(s.mean_dbm);
    }
  }
  if (static_cast<int>(o.size()) < config.min_common_aps) {
    return std::numeric_limits<double>::infinity();
  }
  // Remove each side's mean over the common subset: any constant
  // device offset on the observation cancels exactly.
  double mo = 0.0, mt = 0.0;
  for (std::size_t i = 0; i < o.size(); ++i) {
    mo += o[i];
    mt += t[i];
  }
  mo /= static_cast<double>(o.size());
  mt /= static_cast<double>(t.size());
  double sum2 = 0.0;
  for (std::size_t i = 0; i < o.size(); ++i) {
    const double d = (o[i] - mo) - (t[i] - mt);
    sum2 += d * d;
  }
  return std::sqrt(sum2);
}

double reference_histogram_log_likelihood(
    const traindb::TrainingDatabase& db,
    const core::HistogramLocatorConfig& config, const core::Observation& obs,
    std::size_t point_index) {
  const traindb::TrainingPoint& point = db.points().at(point_index);
  const auto bins = static_cast<std::size_t>(std::max(
      1.0, std::ceil((config.hi_dbm - config.lo_dbm) / config.bin_width_db)));

  double total = 0.0;
  for (const traindb::ApStatistics& s : point.per_ap) {
    const core::ObservedAp* oap = obs.find(s.bssid);
    if (!oap) {
      total += config.missing_ap_log_penalty;
      continue;
    }
    stats::Histogram hist(config.lo_dbm, config.hi_dbm, bins);
    for (const std::int32_t centi : s.samples_centi_dbm) {
      hist.add(static_cast<double>(centi) / 100.0);
    }
    // Score every raw reading; fall back to the mean when the
    // observation kept no raw values.
    if (oap->samples_dbm.empty()) {
      total += std::log(hist.probability(oap->mean_dbm, config.alpha));
    } else {
      // Average the per-reading log-probabilities so a long dwell does
      // not dominate the per-AP terms.
      double ap_sum = 0.0;
      for (const double v : oap->samples_dbm) {
        ap_sum += std::log(hist.probability(v, config.alpha));
      }
      total += ap_sum / static_cast<double>(oap->samples_dbm.size());
    }
  }
  for (const core::ObservedAp& oap : obs.aps()) {
    if (point.find(oap.bssid) == nullptr) {
      total += config.missing_ap_log_penalty;
    }
  }
  return total;
}

}  // namespace loctk::testkit

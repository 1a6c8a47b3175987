#include "core/place_recognition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace loctk::core {

namespace {

/// Binary entropy in nats; 0 at degenerate marginals.
double entropy(double q) {
  if (q <= 0.0 || q >= 1.0) return 0.0;
  return -(q * std::log(q) + (1.0 - q) * std::log(1.0 - q));
}

/// Mutual information of two binary variables from P(x=1, y=1) and the
/// marginals, in nats. Joint cells are floored at a tiny positive mass
/// so sampling noise (p11 slightly above a marginal) cannot produce a
/// negative cell or a log of zero.
double mutual_information(double p11, double qi, double qj) {
  constexpr double kTiny = 1e-12;
  const double cells[4][3] = {
      {std::max(p11, kTiny), qi, qj},
      {std::max(qi - p11, kTiny), qi, 1.0 - qj},
      {std::max(qj - p11, kTiny), 1.0 - qi, qj},
      {std::max(1.0 - qi - qj + p11, kTiny), 1.0 - qi, 1.0 - qj},
  };
  double mi = 0.0;
  for (const auto& c : cells) {
    const double denom = std::max(c[1] * c[2], kTiny);
    mi += c[0] * std::log(c[0] / denom);
  }
  return std::max(mi, 0.0);
}

}  // namespace

PlaceRecognitionLocator::PlaceRecognitionLocator(
    const traindb::TrainingDatabase& db, PlaceRecognitionConfig config)
    : PlaceRecognitionLocator(CompiledDatabase::compile(db), config) {}

PlaceRecognitionLocator::PlaceRecognitionLocator(
    std::shared_ptr<const CompiledDatabase> compiled,
    PlaceRecognitionConfig config)
    : CompiledLocator(std::move(compiled)), config_(config) {
  build_model();
}

void PlaceRecognitionLocator::build_model() {
  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();
  const double alpha = config_.alpha;
  auto clamp_theta = [&](double th) {
    return std::clamp(th, config_.theta_clamp, 1.0 - config_.theta_clamp);
  };

  // Bernoulli visibility table, row-major points x universe. Trained
  // pairs use their own detection counts; untrained pairs carry the
  // Laplace false-detection prior over the point's survey passes.
  std::vector<double> theta(points * universe, 0.0);
  point_scans_.assign(points, 1.0);
  for (std::size_t p = 0; p < points; ++p) {
    const traindb::TrainingPoint& tp = compiled_->point(p);
    double scans = 1.0;
    for (const traindb::ApStatistics& ap : tp.per_ap) {
      scans = std::max(scans, static_cast<double>(ap.scan_count));
    }
    point_scans_[p] = scans;
    const double prior = clamp_theta(alpha / (scans + 2.0 * alpha));
    double* row = theta.data() + p * universe;
    std::fill(row, row + universe, prior);
    for (const traindb::ApStatistics& ap : tp.per_ap) {
      const auto slot = compiled_->slot_of(ap.bssid);
      if (!slot) continue;  // unreachable: universe is the union
      const double s =
          ap.scan_count > 0 ? static_cast<double>(ap.scan_count) : scans;
      row[*slot] = clamp_theta(
          (static_cast<double>(ap.sample_count) + alpha) / (s + 2.0 * alpha));
    }
  }

  // Detection marginals over places (uniform place prior).
  std::vector<double> marginal(universe, 0.0);
  if (points > 0) {
    for (std::size_t p = 0; p < points; ++p) {
      const double* row = theta.data() + p * universe;
      for (std::size_t u = 0; u < universe; ++u) marginal[u] += row[u];
    }
    for (double& q : marginal) q /= static_cast<double>(points);
  }

  // Sparse pairwise co-occurrence: P(i=1, j=1) under the place
  // mixture, accumulated only over pairs trained at a common point
  // (elsewhere both thetas are priors and the product is noise).
  // Memory stays proportional to observed co-occurrence, not
  // universe², which matters at campus cardinality.
  std::unordered_map<std::uint64_t, double> pair11;
  std::vector<std::uint32_t> trained;
  for (std::size_t p = 0; p < points; ++p) {
    const double* mask = compiled_->mask_row(p);
    const double* row = theta.data() + p * universe;
    trained.clear();
    for (std::size_t u = 0; u < universe; ++u) {
      if (mask[u] != 0.0) trained.push_back(static_cast<std::uint32_t>(u));
    }
    for (std::size_t a = 0; a < trained.size(); ++a) {
      const double ta = row[trained[a]];
      for (std::size_t b = a + 1; b < trained.size(); ++b) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(trained[a]) << 32) | trained[b];
        pair11[key] += ta * row[trained[b]];
      }
    }
  }

  // Chow-Liu-style evidence discount: each slot keeps the fraction of
  // its entropy its strongest-MI partner does not already explain.
  evidence_.assign(universe, SlotEvidence{});
  if (points > 0) {
    for (const auto& [key, sum] : pair11) {
      const auto i = static_cast<std::uint32_t>(key >> 32);
      const auto j = static_cast<std::uint32_t>(key & 0xffffffffu);
      const double mi = mutual_information(
          sum / static_cast<double>(points), marginal[i], marginal[j]);
      if (mi > evidence_[i].mutual_information) {
        evidence_[i].mutual_information = mi;
        evidence_[i].parent = static_cast<int>(j);
      }
      if (mi > evidence_[j].mutual_information) {
        evidence_[j].mutual_information = mi;
        evidence_[j].parent = static_cast<int>(i);
      }
    }
    for (std::size_t u = 0; u < universe; ++u) {
      SlotEvidence& e = evidence_[u];
      if (e.parent < 0) continue;
      const double h = std::min(
          entropy(marginal[u]),
          entropy(marginal[static_cast<std::size_t>(e.parent)]));
      if (h <= 0.0) continue;
      e.weight = std::clamp(1.0 - e.mutual_information / h,
                            config_.min_weight, 1.0);
    }
  }

  // Scoring tables: score(k) = base_[k] + sum_{observed i} delta_[k][i].
  base_.assign(points, 0.0);
  delta_.assign(points * universe, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    const double* row = theta.data() + p * universe;
    double* drow = delta_.data() + p * universe;
    double acc = 0.0;
    for (std::size_t u = 0; u < universe; ++u) {
      const double w = evidence_[u].weight;
      const double log_miss = w * std::log(1.0 - row[u]);
      acc += log_miss;
      drow[u] = w * std::log(row[u]) - log_miss;
    }
    base_[p] = acc;
  }
}

LocationEstimate PlaceRecognitionLocator::locate_compiled(
    const CompiledObservation& q) const {
  LocationEstimate est;
  if (q.empty() || compiled_->empty()) return est;

  if (q.in_universe() < config_.min_common_aps) return est;

  const std::size_t universe = compiled_->universe_size();
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_p = 0;
  for (std::size_t p = 0; p < compiled_->point_count(); ++p) {
    const double* drow = delta_.data() + p * universe;
    double score = base_[p];
    for (const std::uint32_t slot : q.slots) score += drow[slot];
    if (score > best) {
      best = score;
      best_p = p;
    }
  }
  if (best == -std::numeric_limits<double>::infinity()) return est;

  const traindb::TrainingPoint& tp = compiled_->point(best_p);
  est.valid = true;
  est.position = tp.position;
  est.location_name = tp.location;
  est.score = best;
  est.aps_used = q.in_universe();
  return est;
}

}  // namespace loctk::core

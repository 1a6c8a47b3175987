#include "testkit/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "core/compiled_db.hpp"
#include "core/histogram_locator.hpp"
#include "core/knn.hpp"
#include "core/locator.hpp"
#include "core/place_recognition.hpp"
#include "core/probabilistic.hpp"
#include "core/ssd_locator.hpp"
#include "testkit/locator_reference.hpp"

namespace loctk::testkit {

namespace {

std::string describe(const char* what, double compiled, double reference) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: compiled %.12g vs reference %.12g",
                what, compiled, reference);
  return buf;
}

/// Training-point index matching an arg-max estimate (these snap to a
/// training point exactly, so position equality is exact).
std::optional<std::size_t> point_of_estimate(
    const traindb::TrainingDatabase& db, const core::LocationEstimate& est) {
  const auto& points = db.points();
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (points[p].location == est.location_name &&
        points[p].position == est.position) {
      return p;
    }
  }
  return std::nullopt;
}

/// Arg-max oracle: the compiled winner must be reference-defensible —
/// its reference score within `score_tol` of the reference optimum.
/// `ref_score(p)` is the string-keyed score of training point p, or
/// -inf for points the locator skips.
template <typename RefScore>
std::optional<std::string> check_argmax(
    const traindb::TrainingDatabase& db, const core::Locator& locator,
    const core::Observation& obs, const DifferentialConfig& config,
    RefScore&& ref_score) {
  const core::LocationEstimate est = locator.locate(obs);

  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < db.points().size(); ++p) {
    best = std::max(best, ref_score(p));
  }
  const bool ref_valid =
      best != -std::numeric_limits<double>::infinity() && !obs.empty();

  if (est.valid != ref_valid) {
    return std::string("validity: compiled ") +
           (est.valid ? "valid" : "invalid") + " vs reference " +
           (ref_valid ? "valid" : "invalid");
  }
  if (!est.valid) return std::nullopt;

  const auto chosen = point_of_estimate(db, est);
  if (!chosen) {
    return "compiled estimate names no training point: '" +
           est.location_name + "'";
  }
  const double chosen_ref = ref_score(*chosen);
  if (best - chosen_ref > config.score_tol) {
    return describe("compiled winner loses by reference score", chosen_ref,
                    best);
  }
  if (std::abs(est.score - chosen_ref) > config.score_tol) {
    return describe("winning score", est.score, chosen_ref);
  }
  return std::nullopt;
}

/// k-NN-family oracle: reruns selection and weighting over the
/// reference distances. Distance summation order matches the compiled
/// kernels bit-for-bit, so the comparison is direct.
std::optional<std::string> check_knn_family(
    const traindb::TrainingDatabase& db, const core::Locator& locator,
    const core::Observation& obs, const DifferentialConfig& config, int k,
    bool inverse_weighting, double weighting_epsilon,
    const std::function<double(const traindb::TrainingPoint&)>& ref_distance) {
  const core::LocationEstimate est = locator.locate(obs);

  struct Neighbor {
    const traindb::TrainingPoint* point;
    double distance;
  };
  std::vector<Neighbor> neighbors;
  if (!obs.empty()) {
    for (const traindb::TrainingPoint& point : db.points()) {
      const double d = ref_distance(point);
      if (std::isinf(d)) continue;
      neighbors.push_back({&point, d});
    }
  }
  if (est.valid != !neighbors.empty()) {
    return std::string("validity: compiled ") +
           (est.valid ? "valid" : "invalid") + " vs reference " +
           (neighbors.empty() ? "invalid" : "valid");
  }
  if (!est.valid) return std::nullopt;

  const std::size_t kk =
      std::min<std::size_t>(static_cast<std::size_t>(k), neighbors.size());
  std::partial_sort(neighbors.begin(),
                    neighbors.begin() + static_cast<std::ptrdiff_t>(kk),
                    neighbors.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance;
                    });
  geom::Vec2 weighted;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < kk; ++i) {
    const double w = inverse_weighting
                         ? 1.0 / (neighbors[i].distance + weighting_epsilon)
                         : 1.0;
    weighted += neighbors[i].point->position * w;
    weight_sum += w;
  }
  const geom::Vec2 ref_position = weighted / weight_sum;

  if (geom::distance(est.position, ref_position) > config.position_tol_ft) {
    return describe("position error (ft)",
                    geom::distance(est.position, ref_position), 0.0);
  }
  if (est.location_name != neighbors.front().point->location) {
    return "nearest-cell name: compiled '" + est.location_name +
           "' vs reference '" + neighbors.front().point->location + "'";
  }
  if (std::abs(est.score - (-neighbors.front().distance)) >
      config.score_tol) {
    return describe("score", est.score, -neighbors.front().distance);
  }
  return std::nullopt;
}

}  // namespace

std::string DifferentialReport::to_text() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "differential oracle: %llu observations, %llu comparisons, "
                "%zu mismatches\n",
                static_cast<unsigned long long>(observations),
                static_cast<unsigned long long>(comparisons),
                mismatches.size());
  std::string out = buf;
  for (const EstimateDiff& d : mismatches) {
    out += "  [" + d.locator + " #" + std::to_string(d.observation) + "] " +
           d.detail + "\n";
  }
  return out;
}

DifferentialReport run_differential_oracle(
    const traindb::TrainingDatabase& db,
    const std::vector<core::Observation>& observations,
    const DifferentialConfig& config) {
  DifferentialReport report;
  report.observations = observations.size();

  const auto compiled = core::CompiledDatabase::compile(db);
  const core::ProbabilisticLocator prob(compiled);
  const core::PlaceRecognitionLocator place(compiled);
  const core::KnnLocator nnss(compiled, {.k = 1});
  const core::KnnLocator knn3(compiled, {.k = 3});
  const core::SsdLocator ssd(compiled);
  std::unique_ptr<core::HistogramLocator> hist;
  if (db.has_samples()) {
    hist = std::make_unique<core::HistogramLocator>(compiled);
  }

  auto note = [&report](const std::string& locator, std::size_t i,
                        std::optional<std::string> diff) {
    ++report.comparisons;
    if (diff) report.mismatches.push_back({locator, i, std::move(*diff)});
  };

  for (std::size_t i = 0; i < observations.size(); ++i) {
    const core::Observation& obs = observations[i];

    note(prob.name(), i,
         check_argmax(db, prob, obs, config, [&](std::size_t p) {
           int common = 0;
           const double ll =
               reference_log_likelihood(prob, obs, db.points()[p], &common);
           return common < prob.config().min_common_aps
                      ? -std::numeric_limits<double>::infinity()
                      : ll;
         }));

    note(place.name(), i,
         check_argmax(db, place, obs, config, [&](std::size_t p) {
           int common = 0;
           const double score = reference_place_score(place, obs, p, &common);
           return common < place.config().min_common_aps
                      ? -std::numeric_limits<double>::infinity()
                      : score;
         }));

    if (hist) {
      note(hist->name(), i,
           check_argmax(db, *hist, obs, config, [&](std::size_t p) {
             return reference_histogram_log_likelihood(db, {}, obs, p);
           }));
    }

    note(nnss.name(), i,
         check_knn_family(db, nnss, obs, config, nnss.config().k,
                          nnss.config().inverse_distance_weighting,
                          nnss.config().weighting_epsilon,
                          [&](const traindb::TrainingPoint& point) {
                            return reference_signal_distance(
                                db, nnss.config(), obs, point);
                          }));
    note(knn3.name(), i,
         check_knn_family(db, knn3, obs, config, knn3.config().k,
                          knn3.config().inverse_distance_weighting,
                          knn3.config().weighting_epsilon,
                          [&](const traindb::TrainingPoint& point) {
                            return reference_signal_distance(
                                db, knn3.config(), obs, point);
                          }));
    note(ssd.name(), i,
         check_knn_family(db, ssd, obs, config, ssd.config().k,
                          ssd.config().inverse_distance_weighting,
                          ssd.config().weighting_epsilon,
                          [&](const traindb::TrainingPoint& point) {
                            return reference_ssd_distance(ssd.config(), obs,
                                                          point);
                          }));
  }
  return report;
}

std::string CompiledDiffReport::to_text() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "compiled diff: %llu cells compared, %zu mismatches"
                " (%llu truncated)\n",
                static_cast<unsigned long long>(cells_compared),
                mismatches.size(),
                static_cast<unsigned long long>(truncated));
  std::string out = buf;
  for (const std::string& m : mismatches) {
    out += "  " + m + "\n";
  }
  return out;
}

CompiledDiffReport compare_compiled_databases(
    const core::CompiledDatabase& delta,
    const core::CompiledDatabase& rebuild) {
  constexpr std::size_t kMaxListed = 32;
  CompiledDiffReport report;
  auto note = [&](std::string text) {
    if (report.mismatches.size() < kMaxListed) {
      report.mismatches.push_back(std::move(text));
    } else {
      ++report.truncated;
    }
  };

  if (delta.database() != rebuild.database()) {
    note("source TrainingDatabase differs (points/universe/site name)");
  }
  if (delta.point_count() != rebuild.point_count()) {
    note("point count: delta " + std::to_string(delta.point_count()) +
         " vs rebuild " + std::to_string(rebuild.point_count()));
  }
  if (delta.universe_size() != rebuild.universe_size()) {
    note("universe size: delta " + std::to_string(delta.universe_size()) +
         " vs rebuild " + std::to_string(rebuild.universe_size()));
  }
  if (delta.row_stride() != rebuild.row_stride()) {
    note("row stride: delta " + std::to_string(delta.row_stride()) +
         " vs rebuild " + std::to_string(rebuild.row_stride()));
  }
  if (!report.ok()) return report;  // shapes differ; cells are meaningless

  struct Matrix {
    const char* name;
    const double* (core::CompiledDatabase::*row)(std::size_t) const;
  };
  static constexpr Matrix kMatrices[] = {
      {"mean", &core::CompiledDatabase::mean_row},
      {"stddev", &core::CompiledDatabase::stddev_row},
      {"mask", &core::CompiledDatabase::mask_row},
      {"weight", &core::CompiledDatabase::weight_row},
  };
  const std::size_t stride = delta.row_stride();
  for (std::size_t p = 0; p < delta.point_count(); ++p) {
    if (delta.trained_count(p) != rebuild.trained_count(p)) {
      note("trained_count row " + std::to_string(p) + ": delta " +
           std::to_string(delta.trained_count(p)) + " vs rebuild " +
           std::to_string(rebuild.trained_count(p)));
    }
    for (const Matrix& m : kMatrices) {
      const double* a = (delta.*m.row)(p);
      const double* b = (rebuild.*m.row)(p);
      // Pad cells included: both builds promise exact 0.0 there.
      for (std::size_t u = 0; u < stride; ++u) {
        ++report.cells_compared;
        if (a[u] == b[u]) continue;  // bit-exact contract, no tolerance
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s[%zu][%zu]: delta %.17g vs rebuild %.17g", m.name,
                      p, u, a[u], b[u]);
        note(buf);
      }
    }
  }
  return report;
}

}  // namespace loctk::testkit

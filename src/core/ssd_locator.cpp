#include "core/ssd_locator.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/score_kernels.hpp"

namespace loctk::core {

SsdLocator::SsdLocator(const traindb::TrainingDatabase& db,
                       SsdConfig config)
    : SsdLocator(CompiledDatabase::compile(db), config) {}

SsdLocator::SsdLocator(std::shared_ptr<const CompiledDatabase> compiled,
                       SsdConfig config)
    : CompiledLocator(std::move(compiled)), config_(config) {
  config_.k = std::max(1, config_.k);
  config_.min_common_aps = std::max(1, config_.min_common_aps);
}

std::string SsdLocator::name() const {
  return "ssd-knn-" + std::to_string(config_.k);
}

LocationEstimate SsdLocator::locate_compiled(
    const CompiledObservation& q) const {
  LocationEstimate est;
  if (q.empty() || compiled_->empty()) return est;

  const std::size_t points = compiled_->point_count();
  const std::size_t stride = compiled_->row_stride();

  struct Neighbor {
    const traindb::TrainingPoint* point;
    double distance;
  };
  std::vector<Neighbor> neighbors;
  neighbors.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    const double* mean = compiled_->mean_row(p);
    const double* mask = compiled_->mask_row(p);
    // Pass 1: size and per-side sums of the common subset.
    const kernels::SsdMoments mom = kernels::ssd_moments_row<simd::Vec4d>(
        mean, mask, q.mean_dbm.data(), q.present.data(), stride);
    if (static_cast<int>(mom.n) < config_.min_common_aps) continue;
    const double mo = mom.sum_o / mom.n;
    const double mt = mom.sum_t / mom.n;
    // Pass 2: squared distance between the mean-centered signatures.
    const double sum2 = kernels::ssd_sq_dist_row<simd::Vec4d>(
        mean, mask, q.mean_dbm.data(), q.present.data(), mo, mt, stride);
    neighbors.push_back({&compiled_->point(p), std::sqrt(sum2)});
  }
  if (neighbors.empty()) return est;

  const std::size_t k = std::min<std::size_t>(
      static_cast<std::size_t>(config_.k), neighbors.size());
  std::partial_sort(neighbors.begin(),
                    neighbors.begin() + static_cast<std::ptrdiff_t>(k),
                    neighbors.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance;
                    });

  geom::Vec2 weighted;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w =
        config_.inverse_distance_weighting
            ? 1.0 / (neighbors[i].distance + config_.weighting_epsilon)
            : 1.0;
    weighted += neighbors[i].point->position * w;
    weight_sum += w;
  }
  est.valid = true;
  est.position = weighted / weight_sum;
  est.location_name = neighbors.front().point->location;
  est.score = -neighbors.front().distance;
  est.aps_used = static_cast<int>(q.total_aps);
  return est;
}

}  // namespace loctk::core

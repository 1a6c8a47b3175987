#include "core/knn.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/score_kernels.hpp"

namespace loctk::core {

KnnLocator::KnnLocator(const traindb::TrainingDatabase& db, KnnConfig config)
    : KnnLocator(CompiledDatabase::compile(db), config) {}

KnnLocator::KnnLocator(std::shared_ptr<const CompiledDatabase> compiled,
                       KnnConfig config)
    : CompiledLocator(std::move(compiled)), config_(config) {
  config_.k = std::max(1, config_.k);
  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();
  const std::size_t stride = compiled_->row_stride();
  // Pad cells stay 0.0 (zero-init) to match the query vector's pad,
  // so padded lanes contribute exact zero to every distance.
  filled_.assign(points * stride, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    const double* mean = compiled_->mean_row(p);
    const double* mask = compiled_->mask_row(p);
    double* row = filled_.data() + p * stride;
    for (std::size_t u = 0; u < universe; ++u) {
      row[u] = mask[u] != 0.0 ? mean[u] : config_.missing_dbm;
    }
  }
}

std::string KnnLocator::name() const {
  return config_.k == 1 ? "nnss" : "knn-" + std::to_string(config_.k);
}

LocationEstimate KnnLocator::locate_compiled(
    const CompiledObservation& cq) const {
  LocationEstimate est;
  if (cq.empty() || compiled_->empty()) return est;

  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();
  const std::size_t stride = compiled_->row_stride();
  simd::AlignedDoubles query(stride, 0.0);
  for (std::size_t u = 0; u < universe; ++u) {
    query[u] =
        cq.present[u] != 0.0 ? cq.mean_dbm[u] : config_.missing_dbm;
  }

  struct Neighbor {
    const traindb::TrainingPoint* point;
    double distance;
  };
  std::vector<Neighbor> neighbors;
  neighbors.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    const double sum2 = kernels::sq_dist_row<simd::Vec4d>(
        filled_.data() + p * stride, query.data(), stride);
    neighbors.push_back({&compiled_->point(p), std::sqrt(sum2)});
  }
  const std::size_t k =
      std::min<std::size_t>(static_cast<std::size_t>(config_.k),
                            neighbors.size());
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
  if (weight_sum <= 0.0) return est;

  est.valid = true;
  est.position = weighted / weight_sum;
  // The nearest neighbor names the cell even when k > 1 interpolates.
  est.location_name = neighbors.front().point->location;
  est.score = -neighbors.front().distance;
  est.aps_used = static_cast<int>(cq.total_aps);
  return est;
}

}  // namespace loctk::core

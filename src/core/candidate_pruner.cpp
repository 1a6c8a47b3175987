#include "core/candidate_pruner.hpp"

#include <algorithm>
#include <cmath>

#include "base/metrics.hpp"

namespace loctk::core {

CandidatePruner::CandidatePruner(
    std::shared_ptr<const CompiledDatabase> compiled, PrunerConfig config)
    : compiled_(std::move(compiled)), config_(config) {
  config_.strongest_aps = std::max(1, config_.strongest_aps);
  config_.top_k = std::max(1, config_.top_k);

  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();
  offsets_.assign(universe + 1, 0);
  for (std::size_t p = 0; p < points; ++p) {
    const double* mask = compiled_->mask_row(p);
    for (std::size_t u = 0; u < universe; ++u) {
      if (mask[u] != 0.0) ++offsets_[u + 1];
    }
  }
  for (std::size_t u = 0; u < universe; ++u) {
    offsets_[u + 1] += offsets_[u];
  }
  postings_.resize(offsets_[universe]);
  std::vector<std::uint32_t> cursor(offsets_.begin(),
                                    offsets_.end() - 1);
  for (std::size_t p = 0; p < points; ++p) {
    const double* mask = compiled_->mask_row(p);
    for (std::size_t u = 0; u < universe; ++u) {
      if (mask[u] != 0.0) {
        postings_[cursor[u]++] = static_cast<std::uint32_t>(p);
      }
    }
  }
  static metrics::Gauge& database_points =
      metrics::gauge("score.prune.database_points");
  database_points.set(static_cast<double>(points));
}

std::vector<std::uint32_t> CandidatePruner::select(
    const CompiledObservation& q) const {
  static metrics::Counter& queries = metrics::counter("score.prune.queries");
  static metrics::Counter& scored =
      metrics::counter("score.prune.candidates_scored");
  queries.increment();
  std::vector<std::uint32_t> rows = candidates(q);
  scored.add(rows.size());
  return rows;
}

std::vector<std::uint32_t> CandidatePruner::candidates(
    const CompiledObservation& q) const {
  const std::size_t points = compiled_->point_count();
  const auto top_k = static_cast<std::size_t>(config_.top_k);
  // Pruning that cannot shrink the work is pure overhead: degenerate.
  if (points <= top_k) return {};

  // The loudest finite in-universe slots seed the candidate set; a
  // query with none (empty, fully out-of-universe, or non-finite) is
  // degenerate and must take the full pass.
  std::vector<std::uint32_t> strongest;
  strongest.reserve(q.slots.size());
  for (const std::uint32_t slot : q.slots) {
    if (std::isfinite(q.mean_dbm[slot])) strongest.push_back(slot);
  }
  if (strongest.empty()) return {};
  const std::size_t n_strong = std::min<std::size_t>(
      static_cast<std::size_t>(config_.strongest_aps), strongest.size());
  std::partial_sort(strongest.begin(),
                    strongest.begin() + static_cast<std::ptrdiff_t>(n_strong),
                    strongest.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return q.mean_dbm[a] > q.mean_dbm[b];
                    });
  strongest.resize(n_strong);

  // Gather every row posted under a strong slot. Touch order is
  // deterministic (slot then database order), so ties in the
  // top-k selection below resolve identically run to run.
  std::vector<std::uint8_t> seen(points, 0);
  std::vector<std::uint32_t> touched;
  for (const std::uint32_t slot : strongest) {
    for (std::uint32_t i = offsets_[slot]; i < offsets_[slot + 1]; ++i) {
      const std::uint32_t p = postings_[i];
      if (!seen[p]) {
        seen[p] = 1;
        touched.push_back(p);
      }
    }
  }
  if (touched.empty()) return {};

  // Coarse-score each touched row over ALL finite observed slots: the
  // negated squared-dBm gap with untrained slots charged against the
  // missing fill. This is the exact k-NN distance restricted to the
  // observed dimensions, so near rows cannot be misranked by the
  // handful of slots that seeded the candidate set.
  std::vector<double> coarse(points, 0.0);
  for (const std::uint32_t p : touched) {
    const double* mean = compiled_->mean_row(p);
    const double* mask = compiled_->mask_row(p);
    double sum2 = 0.0;
    for (const std::uint32_t slot : q.slots) {
      const double q_dbm = q.mean_dbm[slot];
      if (!std::isfinite(q_dbm)) continue;
      const double trained =
          mask[slot] != 0.0 ? mean[slot] : config_.missing_dbm;
      const double d = q_dbm - trained;
      sum2 += d * d;
    }
    coarse[p] = -sum2;
  }

  if (touched.size() > top_k) {
    std::nth_element(touched.begin(),
                     touched.begin() + static_cast<std::ptrdiff_t>(top_k),
                     touched.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return coarse[a] > coarse[b];
                     });
    touched.resize(top_k);
  }
  std::sort(touched.begin(), touched.end());
  return touched;
}

}  // namespace loctk::core

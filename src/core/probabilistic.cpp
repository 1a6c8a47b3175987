#include "core/probabilistic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"
#include "core/score_kernels.hpp"
#include "stats/gaussian.hpp"

namespace loctk::core {

namespace {

metrics::Counter& score_batch_calls() {
  static metrics::Counter& c = metrics::counter("score.batch.calls");
  return c;
}
metrics::Counter& score_batch_observations() {
  static metrics::Counter& c =
      metrics::counter("score.batch.observations");
  return c;
}
metrics::HistogramMetric& score_latency() {
  static metrics::HistogramMetric& h =
      metrics::histogram("score.latency.seconds");
  return h;
}
metrics::Counter& prune_queries() {
  static metrics::Counter& c = metrics::counter("score.prune.queries");
  return c;
}
metrics::Counter& prune_candidates_scored() {
  static metrics::Counter& c =
      metrics::counter("score.prune.candidates_scored");
  return c;
}
metrics::Counter& prune_fallback_full() {
  static metrics::Counter& c =
      metrics::counter("score.prune.fallback_full");
  return c;
}
metrics::Gauge& prune_database_points() {
  static metrics::Gauge& g = metrics::gauge("score.prune.database_points");
  return g;
}

/// Cache-blocking geometry for score_batch: observations are chunked
/// into groups and the training rows into tiles, so one tile of
/// mean/mask/log_norm/inv_two_var panels is scored against the whole
/// group while it is L1/L2-resident.
constexpr std::size_t kBatchGroup = 8;
constexpr std::size_t kPointTile = 64;

}  // namespace

ProbabilisticLocator::ProbabilisticLocator(
    const traindb::TrainingDatabase& db, ProbabilisticConfig config)
    : ProbabilisticLocator(CompiledDatabase::compile(db), config) {}

ProbabilisticLocator::ProbabilisticLocator(
    std::shared_ptr<const CompiledDatabase> compiled,
    ProbabilisticConfig config)
    : CompiledLocator(std::move(compiled)), config_(config) {
  build_kernel_tables();
  if (config_.prune_top_k > 0) {
    // ML coarse mode: the pruner ranks candidates with this locator's
    // own restricted score, so the exact arg-max is never pruned out
    // (candidate_pruner.hpp, "ML coarse mode").
    pruner_ = std::make_shared<const CandidatePruner>(
        compiled_,
        PrunerConfig{.strongest_aps = config_.prune_strongest_aps,
                     .top_k = config_.prune_top_k,
                     .ml_tables = tables_,
                     .ml_missing_penalty = config_.missing_ap_log_penalty,
                     .ml_min_common_aps = config_.min_common_aps});
    prune_database_points().set(
        static_cast<double>(compiled_->point_count()));
  }
}

void ProbabilisticLocator::build_kernel_tables() {
  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();

  // Pooled per-AP sigma: sample-count-weighted RMS of the per-point
  // sigmas (i.e. pooled variance), in one pass over the dense rows.
  pooled_sigma_.assign(universe, config_.sigma_floor_db);
  std::vector<double> var_sum(universe, 0.0);
  std::vector<double> weight(universe, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    const double* sd = compiled_->stddev_row(p);
    const double* w = compiled_->weight_row(p);
    for (std::size_t u = 0; u < universe; ++u) {
      var_sum[u] += w[u] * sd[u] * sd[u];
      weight[u] += w[u];
    }
  }
  for (std::size_t u = 0; u < universe; ++u) {
    if (weight[u] > 0.0) {
      pooled_sigma_[u] = std::max(std::sqrt(var_sum[u] / weight[u]),
                                  config_.sigma_floor_db);
    }
  }

  // Per-cell Gaussian constants. Untrained slots (and the stride pad)
  // get exact zeros so the branchless kernel's masked terms stay
  // finite; the tables share the compiled matrices' aligned padded
  // layout so score_point can run unmasked vector loads.
  const std::size_t stride = compiled_->row_stride();
  auto tables = std::make_shared<GaussianTables>();
  tables->log_norm.assign(points * stride, 0.0);
  tables->inv_two_var.assign(points * stride, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    const double* sd = compiled_->stddev_row(p);
    const double* mask = compiled_->mask_row(p);
    const std::size_t base = p * stride;
    for (std::size_t u = 0; u < universe; ++u) {
      if (mask[u] == 0.0) continue;
      const double sigma =
          config_.use_pooled_sigma
              ? pooled_sigma_[u]
              : std::max(sd[u], config_.sigma_floor_db);
      tables->log_norm[base + u] =
          -0.5 * std::log(stats::kTwoPi * sigma * sigma);
      tables->inv_two_var[base + u] = 0.5 / (sigma * sigma);
    }
  }
  tables_ = std::move(tables);
}

double ProbabilisticLocator::pooled_sigma_db(const std::string& bssid) const {
  const auto slot = compiled_->slot_of(bssid);
  if (!slot) return config_.sigma_floor_db;
  return pooled_sigma_[*slot];
}

double ProbabilisticLocator::log_likelihood(
    const Observation& obs, const traindb::TrainingPoint& point,
    int* common_aps, int* penalized_aps) const {
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
      stats::Gaussian g = trained[t].gaussian(config_.sigma_floor_db);
      if (config_.use_pooled_sigma) {
        g.sigma = pooled_sigma_db(trained[t].bssid);
      }
      total += g.log_pdf(observed[o].mean_dbm);
      ++common;
      ++t;
      ++o;
    } else {
      // Trained-but-unheard or heard-but-untrained: either way the
      // AP's visibility disagrees.
      total += config_.missing_ap_log_penalty;
      ++penalized;
      cmp < 0 ? ++t : ++o;
    }
  }
  if (common_aps) *common_aps = common;
  if (penalized_aps) *penalized_aps = penalized;
  return total;
}

double ProbabilisticLocator::score_point(std::size_t point,
                                         const CompiledObservation& q,
                                         int* common_aps) const {
  const std::size_t stride = compiled_->row_stride();
  const kernels::ProbRowScore s = kernels::prob_score_row<simd::Vec4d>(
      compiled_->mean_row(point), compiled_->mask_row(point),
      tables_->log_norm.data() + point * stride,
      tables_->inv_two_var.data() + point * stride, q.mean_dbm.data(),
      q.present.data(), stride);
  const int common_i = static_cast<int>(s.common);
  // Penalties = trained-only + observed-only (inside or outside the
  // trained universe).
  const int penalties = compiled_->trained_count(point) + q.in_universe() +
                        q.outside_universe - 2 * common_i;
  if (common_aps) *common_aps = common_i;
  return s.gauss +
         config_.missing_ap_log_penalty * static_cast<double>(penalties);
}

ScoredPoint ProbabilisticLocator::scored_point(
    std::size_t point, const CompiledObservation& q) const {
  ScoredPoint sp;
  sp.point = &compiled_->point(point);
  sp.log_likelihood = score_point(point, q, &sp.common_aps);
  if (sp.common_aps < config_.min_common_aps) {
    sp.log_likelihood = -std::numeric_limits<double>::infinity();
  }
  return sp;
}

LocationEstimate ProbabilisticLocator::best_of_rows(
    std::span<const std::uint32_t> rows,
    const CompiledObservation& q) const {
  LocationEstimate est;
  ScoredPoint best;
  best.log_likelihood = -std::numeric_limits<double>::infinity();
  for (const std::uint32_t p : rows) {
    const ScoredPoint sp = scored_point(p, q);
    if (best.point == nullptr || sp.log_likelihood > best.log_likelihood) {
      best = sp;
    }
  }
  if (best.point == nullptr ||
      best.log_likelihood == -std::numeric_limits<double>::infinity()) {
    return est;
  }
  est.valid = true;
  est.position = best.point->position;
  est.location_name = best.point->location;
  est.score = best.log_likelihood;
  est.aps_used = best.common_aps;
  return est;
}

std::vector<ScoredPoint> ProbabilisticLocator::score_all(
    const Observation& obs) const {
  const CompiledObservation q = compiled_->compile_observation(obs);
  std::vector<ScoredPoint> scores;
  scores.reserve(compiled_->point_count());
  for (std::size_t p = 0; p < compiled_->point_count(); ++p) {
    scores.push_back(scored_point(p, q));
  }
  return scores;
}

std::vector<std::vector<ScoredPoint>> ProbabilisticLocator::score_batch(
    std::span<const Observation> obs, concurrency::ThreadPool* pool) const {
  score_batch_calls().increment();
  score_batch_observations().add(obs.size());
  metrics::ScopedTimer timer(score_latency(), obs.size());
  std::vector<std::vector<ScoredPoint>> out(obs.size());
  const std::size_t points = compiled_->point_count();
  // Cache-blocked sweep: each worker takes a group of observations,
  // compiles them once, then walks the training rows in tiles scoring
  // the whole group per tile — the tile's four table panels stay
  // cache-resident across the group instead of being re-streamed per
  // observation. Per-<observation, row> arithmetic is score_point
  // verbatim, so results are identical to score_all per element.
  const std::size_t groups = (obs.size() + kBatchGroup - 1) / kBatchGroup;
  auto body = [&](std::size_t g) {
    const std::size_t begin = g * kBatchGroup;
    const std::size_t end = std::min(begin + kBatchGroup, obs.size());
    std::vector<CompiledObservation> qs;
    qs.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      qs.push_back(compiled_->compile_observation(obs[i]));
      out[i].reserve(points);
    }
    for (std::size_t p0 = 0; p0 < points; p0 += kPointTile) {
      const std::size_t p1 = std::min(p0 + kPointTile, points);
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t p = p0; p < p1; ++p) {
          out[i].push_back(scored_point(p, qs[i - begin]));
        }
      }
    }
  };
  if (pool && groups > 1) {
    concurrency::parallel_for(*pool, 0, groups, body);
  } else {
    for (std::size_t g = 0; g < groups; ++g) body(g);
  }
  return out;
}

LocationEstimate ProbabilisticLocator::best_of_all(
    const CompiledObservation& q) const {
  LocationEstimate est;
  ScoredPoint best;
  best.log_likelihood = -std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < compiled_->point_count(); ++p) {
    const ScoredPoint sp = scored_point(p, q);
    if (best.point == nullptr || sp.log_likelihood > best.log_likelihood) {
      best = sp;
    }
  }
  if (best.point == nullptr ||
      best.log_likelihood == -std::numeric_limits<double>::infinity()) {
    return est;
  }
  est.valid = true;
  est.position = best.point->position;
  est.location_name = best.point->location;
  est.score = best.log_likelihood;
  est.aps_used = best.common_aps;
  return est;
}

void ProbabilisticLocator::locate_quad(const CompiledObservation* qs,
                                       LocationEstimate* out) const {
  using V = simd::Vec4d;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const std::size_t stride = compiled_->row_stride();
  const std::size_t points = compiled_->point_count();

  // Transpose the four compiled queries into slot-major panels (one
  // aligned vector of four observations per universe slot) and hoist
  // each observation's constant penalty base K = in + outside. The
  // panels are per-thread scratch: every cell is overwritten below,
  // so only the capacity is reused across quads.
  thread_local simd::AlignedDoubles qm_t;
  thread_local simd::AlignedDoubles qp_t;
  qm_t.resize(stride * simd::kLanes);
  qp_t.resize(stride * simd::kLanes);
  alignas(simd::kAlignment) double k_base[simd::kLanes];
  for (std::size_t j = 0; j < simd::kLanes; ++j) {
    for (std::size_t u = 0; u < stride; ++u) {
      qm_t[u * simd::kLanes + j] = qs[j].mean_dbm[u];
      qp_t[u * simd::kLanes + j] = qs[j].present[u];
    }
    k_base[j] =
        static_cast<double>(qs[j].in_universe() + qs[j].outside_universe);
  }

  // Per-row epilogue, all in lanes. The scalar path computes
  //   penalties = trained + in + outside - 2*common   (exact small ints)
  //   ll = gauss + penalty * penalties; common < min  ->  -inf
  // and the lane arithmetic below evaluates the same exact integer
  // values and the same two rounding ops (penalty*pen, gauss + x), so
  // each lane matches scored_point() bit for bit. The arg-max uses the
  // same strictly-greater update as best_of_all: rows scanned in
  // order, first maximum wins, -inf rows can never displace anything.
  const V v_k = V::load(k_base);
  const V v_penalty = V::broadcast(config_.missing_ap_log_penalty);
  const V v_min_common =
      V::broadcast(static_cast<double>(config_.min_common_aps));
  const V v_ninf = V::broadcast(kNegInf);
  const V v_two = V::broadcast(2.0);
  V best_ll = v_ninf;
  V best_row = V::zero();
  V best_common = V::zero();
  for (std::size_t p = 0; p < points; ++p) {
    V gauss, common;
    kernels::prob_score_row_obs4<V>(
        compiled_->mean_row(p), compiled_->mask_row(p),
        tables_->log_norm.data() + p * stride,
        tables_->inv_two_var.data() + p * stride,
        qm_t.data(), qp_t.data(), stride, &gauss, &common);
    const V v_trained =
        V::broadcast(static_cast<double>(compiled_->trained_count(p)));
    const V pen = (v_trained + v_k) - v_two * common;
    V ll = gauss + v_penalty * pen;
    ll = V::select_ge(common, v_min_common, ll, v_ninf);
    const V v_row = V::broadcast(static_cast<double>(p));
    best_row = V::select_gt(ll, best_ll, v_row, best_row);
    best_common = V::select_gt(ll, best_ll, common, best_common);
    best_ll = V::select_gt(ll, best_ll, ll, best_ll);
  }

  alignas(simd::kAlignment) double lls[simd::kLanes];
  alignas(simd::kAlignment) double rows[simd::kLanes];
  alignas(simd::kAlignment) double commons[simd::kLanes];
  best_ll.store(lls);
  best_row.store(rows);
  best_common.store(commons);
  for (std::size_t i = 0; i < simd::kLanes; ++i) {
    LocationEstimate est;
    if (points > 0 && lls[i] != kNegInf) {
      const traindb::TrainingPoint& tp =
          compiled_->point(static_cast<std::size_t>(rows[i]));
      est.valid = true;
      est.position = tp.position;
      est.location_name = tp.location;
      est.score = lls[i];
      est.aps_used = static_cast<int>(commons[i]);
    }
    out[i] = est;
  }
}

LocationEstimate ProbabilisticLocator::locate_compiled(
    const CompiledObservation& q) const {
  LocationEstimate est;
  if (q.empty() || compiled_->empty()) return est;

  if (pruner_) {
    prune_queries().increment();
    const std::vector<std::uint32_t> candidates = pruner_->select(q);
    if (!candidates.empty()) {
      prune_candidates_scored().add(candidates.size());
      est = best_of_rows(candidates, q);
      if (est.valid) return est;
    }
    // Degenerate prefilter or no valid candidate estimate: take the
    // exact full pass, so pruning can never invalidate an answer.
    prune_fallback_full().increment();
  }
  return best_of_all(q);
}

void ProbabilisticLocator::locate_batch_impl(
    std::span<const Observation> obs, concurrency::ThreadPool* pool,
    std::span<LocationEstimate> out) const {
  // The pruned configuration is a per-observation adaptive path;
  // the base implementation already parallelizes it correctly.
  if (pruner_ || compiled_->empty()) {
    Locator::locate_batch_impl(obs, pool, out);
    return;
  }

  // Empty observations never reach the kernels (locate() refuses them
  // before compiling, and min_common_aps = 0 would otherwise let an
  // all-zero query "win"); everything else rides the observation-major
  // kernel in groups of four, remainder on the single-query scan.
  std::vector<std::uint32_t> live;
  live.reserve(obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (!obs[i].empty()) live.push_back(static_cast<std::uint32_t>(i));
  }
  const std::size_t quads = live.size() / 4;
  auto quad_body = [&](std::size_t g) {
    // Per-thread scratch: compile_observation_into reuses the buffer
    // capacity, so steady-state batches never touch the allocator.
    thread_local CompiledObservation qs[4];
    LocationEstimate res[4];
    for (std::size_t j = 0; j < 4; ++j) {
      compiled_->compile_observation_into(obs[live[g * 4 + j]], &qs[j]);
    }
    locate_quad(qs, res);
    for (std::size_t j = 0; j < 4; ++j) {
      out[live[g * 4 + j]] = std::move(res[j]);
    }
  };
  if (pool && quads > 1) {
    concurrency::parallel_for(*pool, 0, quads, quad_body);
  } else {
    for (std::size_t g = 0; g < quads; ++g) quad_body(g);
  }
  for (std::size_t k = quads * 4; k < live.size(); ++k) {
    out[live[k]] =
        best_of_all(compiled_->compile_observation(obs[live[k]]));
  }
}

}  // namespace loctk::core

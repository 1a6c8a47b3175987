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

/// Cache-blocking geometry for score_batch: observations are chunked
/// into groups and the training rows into tiles, so one tile of
/// mean/mask/log_norm/inv_two_var panels is scored against the whole
/// group while it is L1/L2-resident.
constexpr std::size_t kBatchGroup = 8;
constexpr std::size_t kPointTile = 64;

/// The arg-max every single-query path shares: rows in database
/// order, the first row always taken and later rows only when
/// strictly greater (ties keep the lowest row; a NaN first row
/// sticks), and an -inf winner means no valid estimate.
template <class Scored>
LocationEstimate best_of(std::size_t points, Scored scored) {
  LocationEstimate est;
  ScoredPoint best;
  best.log_likelihood = -std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < points; ++p) {
    const ScoredPoint sp = scored(p);
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

}  // namespace

ProbabilisticLocator::ProbabilisticLocator(
    const traindb::TrainingDatabase& db, ProbabilisticConfig config)
    : ProbabilisticLocator(CompiledDatabase::compile(db), config) {}

ProbabilisticLocator::ProbabilisticLocator(
    std::shared_ptr<const CompiledDatabase> compiled,
    ProbabilisticConfig config)
    : CompiledLocator(std::move(compiled)), config_(config) {
  build_kernel_tables();
}

void ProbabilisticLocator::build_kernel_tables() {
  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();

  // Pooled per-AP sigma: sample-count-weighted RMS of the per-point
  // sigmas (i.e. pooled variance), in one pass over the dense rows
  // that also counts each slot's trained cells for the postings.
  auto tables = std::make_shared<GaussianTables>();
  GaussianTables::Postings& post = tables->postings;
  post.offsets.assign(universe + 1, 0);
  pooled_sigma_.assign(universe, config_.sigma_floor_db);
  std::vector<double> var_sum(universe, 0.0);
  std::vector<double> weight(universe, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    const double* sd = compiled_->stddev_row(p);
    const double* w = compiled_->weight_row(p);
    const double* mask = compiled_->mask_row(p);
    for (std::size_t u = 0; u < universe; ++u) {
      var_sum[u] += w[u] * sd[u] * sd[u];
      weight[u] += w[u];
      post.offsets[u + 1] += mask[u] != 0.0 ? 1 : 0;
    }
  }
  for (std::size_t u = 0; u < universe; ++u) {
    if (weight[u] > 0.0) {
      pooled_sigma_[u] = std::max(std::sqrt(var_sum[u] / weight[u]),
                                  config_.sigma_floor_db);
    }
  }

  // Per-cell Gaussian constants, in both layouts. Dense: untrained
  // slots (and the stride pad) get exact zeros so the branchless
  // kernel's masked terms stay finite; the tables share the compiled
  // matrices' aligned padded layout so scored_point can run unmasked
  // vector loads. Sparse: each trained cell also lands at its slot's
  // next posting, filled in this row-major pass so the matrices are
  // read sequentially.
  const std::size_t stride = compiled_->row_stride();
  tables->log_norm.assign(points * stride, 0.0);
  tables->inv_two_var.assign(points * stride, 0.0);
  for (std::size_t u = 0; u < universe; ++u) {
    post.offsets[u + 1] += post.offsets[u];
  }
  const std::size_t cells = post.offsets[universe];
  post.row.resize(cells);
  post.mean.resize(cells);
  post.log_norm.resize(cells);
  post.inv_two_var.resize(cells);
  std::vector<std::uint32_t> cursor(post.offsets.begin(),
                                    post.offsets.end() - 1);
  for (std::size_t p = 0; p < points; ++p) {
    const double* mean = compiled_->mean_row(p);
    const double* sd = compiled_->stddev_row(p);
    const double* mask = compiled_->mask_row(p);
    const std::size_t base = p * stride;
    for (std::size_t u = 0; u < universe; ++u) {
      if (mask[u] == 0.0) continue;
      const double sigma =
          config_.use_pooled_sigma
              ? pooled_sigma_[u]
              : std::max(sd[u], config_.sigma_floor_db);
      const double log_norm = -0.5 * std::log(stats::kTwoPi * sigma * sigma);
      const double inv_two_var = 0.5 / (sigma * sigma);
      tables->log_norm[base + u] = log_norm;
      tables->inv_two_var[base + u] = inv_two_var;
      const std::uint32_t i = cursor[u]++;
      post.row[i] = static_cast<std::uint32_t>(p);
      post.mean[i] = mean[u];
      post.log_norm[i] = log_norm;
      post.inv_two_var[i] = inv_two_var;
      // The dense kernel's term for this cell when the slot is not
      // heard (query mean 0.0), which it multiplies by 0: the sweep
      // may skip it only if that product is ±0.
      const double d = 0.0 - mean[u];
      if (!std::isfinite(log_norm - d * d * inv_two_var)) {
        sweep_exact_ = false;
      }
    }
  }

  // The batch path follows the map's fill: per-observation sweeps win
  // while under a quarter of the padded cells are trained (a campus
  // sits near 6%, the paper house and office floors at 50-64%).
  batch_sweeps_ = cells * 4 < points * stride;
  tables_ = std::move(tables);
}

double ProbabilisticLocator::pooled_sigma_db(const std::string& bssid) const {
  const auto slot = compiled_->slot_of(bssid);
  if (!slot) return config_.sigma_floor_db;
  return pooled_sigma_[*slot];
}

ScoredPoint ProbabilisticLocator::finish_row(
    std::size_t point, double gauss, int common,
    const CompiledObservation& q) const {
  ScoredPoint sp;
  sp.point = &compiled_->point(point);
  sp.common_aps = common;
  // Penalties = trained-only + observed-only (inside or outside the
  // trained universe).
  const int penalties = compiled_->trained_count(point) + q.in_universe() +
                        q.outside_universe - 2 * common;
  sp.log_likelihood =
      gauss + config_.missing_ap_log_penalty * static_cast<double>(penalties);
  if (common < config_.min_common_aps) {
    sp.log_likelihood = -std::numeric_limits<double>::infinity();
  }
  return sp;
}

ScoredPoint ProbabilisticLocator::scored_point(
    std::size_t point, const CompiledObservation& q) const {
  const std::size_t stride = compiled_->row_stride();
  const kernels::ProbRowScore s = kernels::prob_score_row<simd::Vec4d>(
      compiled_->mean_row(point), compiled_->mask_row(point),
      tables_->log_norm.data() + point * stride,
      tables_->inv_two_var.data() + point * stride, q.mean_dbm.data(),
      q.present.data(), stride);
  return finish_row(point, s.gauss, static_cast<int>(s.common), q);
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
  return best_of(compiled_->point_count(),
                 [&](std::size_t p) { return scored_point(p, q); });
}

LocationEstimate ProbabilisticLocator::sweep(
    const CompiledObservation& q) const {
  // Bit-identity with best_of_all. The dense kernel adds
  // mask·present·(log_norm - d²·inv_two_var) into lane u mod 4 in
  // ascending u, then reduces (l0+l2)+(l1+l3). A cell this sweep skips
  // has mask or present 0, so the dense kernel adds 0 × term, which is
  // ±0 when the term is finite: the constructor checked that for every
  // trained cell left unheard (sweep_exact_), and the loop below checks
  // it for every heard slot against untrained rows (term -(x - 0)²·0). A
  // lane that starts at +0 can never become -0, so adding ±0 leaves
  // it unchanged: visiting only the heard cells of each row, in
  // ascending slot order, into the same lanes, gives the same sums.
  for (const std::uint32_t slot : q.slots) {
    const double x = q.mean_dbm[slot];
    if (!std::isfinite(x * x)) return best_of_all(q);
  }

  // Per-thread accumulators, lane-major (lane j of row p at
  // lanes[j * points + p]); zeroed per query, so only their capacity
  // carries over between queries and locators.
  const std::size_t points = compiled_->point_count();
  thread_local std::vector<double> lane_scratch;
  thread_local std::vector<int> common_scratch;
  lane_scratch.assign(simd::kLanes * points, 0.0);
  common_scratch.assign(points, 0);
  double* const lanes = lane_scratch.data();
  int* const common = common_scratch.data();
  const GaussianTables::Postings& post = tables_->postings;
  for (const std::uint32_t slot : q.slots) {
    const double x = q.mean_dbm[slot];
    double* const lane = lanes + (slot % simd::kLanes) * points;
    for (std::uint32_t i = post.offsets[slot]; i < post.offsets[slot + 1];
         ++i) {
      const std::uint32_t row = post.row[i];
      const double d = x - post.mean[i];
      lane[row] += post.log_norm[i] - d * d * post.inv_two_var[i];
      ++common[row];
    }
  }
  return best_of(points, [&](std::size_t p) {
    const double gauss = (lanes[p] + lanes[2 * points + p]) +
                         (lanes[points + p] + lanes[3 * points + p]);
    return finish_row(p, gauss, common[p], q);
  });
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
    if (p == 0) {
      // best_of takes the first row unconditionally (a NaN first row
      // sticks), so the lanes do too.
      best_ll = ll;
      best_common = common;
      continue;
    }
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
  if (q.empty() || compiled_->empty()) return {};
  return sweep_exact_ ? sweep(q) : best_of_all(q);
}

void ProbabilisticLocator::locate_batch_impl(
    std::span<const Observation> obs, concurrency::ThreadPool* pool,
    std::span<LocationEstimate> out) const {
  // A sparse map runs one sweep per observation; the base
  // implementation already parallelizes that correctly. So does a map
  // the construction guard keeps dense: where two NaNs meet, the quad
  // kernel need not keep the NaN bits the single-query kernel does.
  if (batch_sweeps_ || !sweep_exact_ || compiled_->empty()) {
    Locator::locate_batch_impl(obs, pool, out);
    return;
  }

  // Empty observations never reach the kernels (locate() refuses them
  // before compiling, and min_common_aps = 0 would otherwise let an
  // all-zero query "win"). Observations the sweep's per-query guard
  // would reject go to the single-query path for the same NaN reason;
  // everything else rides the observation-major kernel in groups of
  // four, remainder on the single-query path too.
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> single;
  live.reserve(obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    if (obs[i].empty()) continue;
    const bool squares_finite =
        std::all_of(obs[i].aps().begin(), obs[i].aps().end(),
                    [](const ObservedAp& ap) {
                      return std::isfinite(ap.mean_dbm * ap.mean_dbm);
                    });
    (squares_finite ? live : single).push_back(static_cast<std::uint32_t>(i));
  }
  const std::size_t quads = live.size() / 4;
  single.insert(single.end(),
                live.begin() + static_cast<std::ptrdiff_t>(quads * 4),
                live.end());
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
  for (const std::uint32_t i : single) out[i] = locate(obs[i]);
}

}  // namespace loctk::core

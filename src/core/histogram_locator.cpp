#include "core/histogram_locator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/score_kernels.hpp"
#include "stats/histogram.hpp"

namespace loctk::core {

HistogramLocator::HistogramLocator(const traindb::TrainingDatabase& db,
                                   HistogramLocatorConfig config)
    : HistogramLocator(CompiledDatabase::compile(db), config) {}

HistogramLocator::HistogramLocator(
    std::shared_ptr<const CompiledDatabase> compiled,
    HistogramLocatorConfig config)
    : CompiledLocator(std::move(compiled)), config_(config) {
  const traindb::TrainingDatabase& db = compiled_->database();
  if (!db.has_samples()) {
    throw traindb::DatabaseError(
        "HistogramLocator: database has no raw samples; regenerate with "
        "keep_samples = true");
  }
  bins_ = static_cast<std::size_t>(std::max(
      1.0, std::ceil((config_.hi_dbm - config_.lo_dbm) /
                     config_.bin_width_db)));

  // Histogram every <point, AP>'s retained samples and flatten it into
  // per-bin log-probabilities, stored points-major: one padded column
  // of training points per <slot, bin> cell, so scoring is SIMD axpys
  // across points instead of per-point table walks. Pad cells stay 0.0
  // and the transposed mask gates untrained pairs exactly as the
  // row-major walk did.
  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();
  const std::size_t row = bins_ + 1;
  point_stride_ = simd::padded_stride(points);
  cols_.assign(universe * row * point_stride_, 0.0);
  mask_cols_.assign(universe * point_stride_, 0.0);
  trained_counts_.assign(point_stride_, 0.0);
  for (std::size_t p = 0; p < points; ++p) {
    const traindb::TrainingPoint& tp = db.points()[p];
    trained_counts_[p] = static_cast<double>(compiled_->trained_count(p));
    const double* mask = compiled_->mask_row(p);
    for (std::size_t u = 0; u < universe; ++u) {
      mask_cols_[u * point_stride_ + p] = mask[u];
    }
    for (const traindb::ApStatistics& s : tp.per_ap) {
      const auto slot = compiled_->slot_of(s.bssid);
      if (!slot) continue;
      stats::Histogram h(config_.lo_dbm, config_.hi_dbm, bins_);
      for (const std::int32_t centi : s.samples_centi_dbm) {
        h.add(static_cast<double>(centi) / 100.0);
      }
      const std::size_t base = *slot * row;
      const double denom =
          static_cast<double>(h.total()) +
          config_.alpha * static_cast<double>(bins_);
      for (std::size_t b = 0; b < bins_; ++b) {
        cols_[(base + b) * point_stride_ + p] = std::log(
            (static_cast<double>(h.count(b)) + config_.alpha) / denom);
      }
      cols_[(base + bins_) * point_stride_ + p] =
          std::log(config_.alpha / denom);
    }
  }
}

std::size_t HistogramLocator::bin_of(double x) const {
  if (!(x >= config_.lo_dbm && x < config_.hi_dbm)) return bins_;
  const double width =
      (config_.hi_dbm - config_.lo_dbm) / static_cast<double>(bins_);
  const auto idx =
      static_cast<std::size_t>((x - config_.lo_dbm) / width);
  return std::min(idx, bins_ - 1);  // guard FP edge at hi
}

std::vector<HistogramLocator::SlotBins> HistogramLocator::compile_query(
    const CompiledObservation& q) const {
  std::vector<SlotBins> out;
  out.reserve(q.slots.size());
  std::vector<double> counts(bins_ + 1);
  for (std::size_t i = 0; i < q.slots.size(); ++i) {
    const std::span<const double> samples = q.slot_samples(i);
    SlotBins sb;
    sb.slot = q.slots[i];
    std::fill(counts.begin(), counts.end(), 0.0);
    if (samples.empty()) {
      counts[bin_of(q.mean_dbm[sb.slot])] = 1.0;
      sb.inv_n = 1.0;
    } else {
      for (const double v : samples) counts[bin_of(v)] += 1.0;
      sb.inv_n = 1.0 / static_cast<double>(samples.size());
    }
    for (std::uint32_t b = 0; b <= bins_; ++b) {
      if (counts[b] != 0.0) sb.bins.emplace_back(b, counts[b]);
    }
    out.push_back(std::move(sb));
  }
  return out;
}

LocationEstimate HistogramLocator::locate_compiled(
    const CompiledObservation& q) const {
  LocationEstimate est;
  if (q.empty() || compiled_->empty()) return est;

  const std::size_t points = compiled_->point_count();
  const std::size_t row = bins_ + 1;
  const std::vector<SlotBins> query = compile_query(q);

  // Vectorized across training points: each observed (slot, bin,
  // count) is one axpy over the <slot, bin> column, then the slot's
  // partial sums fold into the per-point totals gated by the
  // transposed mask. Per point this reproduces the former row-major
  // walk's accumulation order exactly (bins in sb order, one
  // ap_sum * inv_n added per slot, masked slots contributing exact
  // zeros instead of being skipped).
  simd::AlignedDoubles total(point_stride_, 0.0);
  simd::AlignedDoubles common(point_stride_, 0.0);
  simd::AlignedDoubles slot_sum(point_stride_, 0.0);
  for (const SlotBins& sb : query) {
    std::fill(slot_sum.begin(), slot_sum.end(), 0.0);
    const std::size_t base = sb.slot * row;
    for (const auto& [bin, count] : sb.bins) {
      kernels::axpy<simd::Vec4d>(
          count, cols_.data() + (base + bin) * point_stride_,
          slot_sum.data(), point_stride_);
    }
    kernels::hist_fold_slot<simd::Vec4d>(
        slot_sum.data(), mask_cols_.data() + sb.slot * point_stride_,
        sb.inv_n, total.data(), common.data(), point_stride_);
  }

  // Penalties: trained-but-unheard plus heard-but-untrained (inside
  // or outside the trained universe). All counts are small integers,
  // so the double arithmetic is exact.
  const double observed =
      static_cast<double>(q.in_universe() + q.outside_universe);
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t p = 0; p < points; ++p) {
    const double penalties =
        trained_counts_[p] + observed - 2.0 * common[p];
    const double score =
        total[p] + config_.missing_ap_log_penalty * penalties;
    if (score > best) {
      best = score;
      best_idx = p;
    }
  }
  if (best == -std::numeric_limits<double>::infinity()) return est;

  const traindb::TrainingPoint& p = compiled_->point(best_idx);
  est.valid = true;
  est.position = p.position;
  est.location_name = p.location;
  est.score = best;
  est.aps_used = static_cast<int>(q.total_aps);
  return est;
}

}  // namespace loctk::core

#pragma once

/// \file histogram_locator.hpp
/// Distribution-aware fingerprint matching.
///
/// The paper's future-work §6 item 2: "Our new algorithm will
/// consider the distribution of these values" rather than only the
/// mean. This locator builds, per <training point, AP>, a histogram
/// of the retained raw samples and scores an observation by the
/// smoothed log-probability of each of its raw readings. It needs a
/// database generated with `GeneratorConfig::keep_samples = true`.
///
/// locate() scores through a compiled table: every <point, universe
/// slot> histogram is flattened to per-bin log-probabilities and the
/// observation's readings are reduced to per-slot bin counts, so the
/// hot loop needs no string compares or per-sample log() calls. The
/// table is stored points-major (one padded, 64-byte-aligned column
/// of training points per <slot, bin> cell), so scoring vectorizes
/// across training points: each observed (slot, bin, count) is one
/// SIMD axpy over the whole column. The string-keyed reference
/// likelihood the differential oracle checks it against rebuilds the
/// histograms from the database's samples; it lives in
/// testkit/locator_reference.hpp.

#include <cstdint>
#include <vector>

#include "core/compiled_db.hpp"
#include "core/locator.hpp"

namespace loctk::core {

struct HistogramLocatorConfig {
  /// Histogram support (dBm) and bin width.
  double lo_dbm = -100.0;
  double hi_dbm = -10.0;
  double bin_width_db = 2.0;
  /// Laplace pseudo-count per bin.
  double alpha = 0.5;
  /// Log-penalty per AP present on only one side.
  double missing_ap_log_penalty = -6.0;
};

class HistogramLocator : public CompiledLocator {
 public:
  /// Throws DatabaseError when `db` retains no raw samples.
  explicit HistogramLocator(const traindb::TrainingDatabase& db,
                            HistogramLocatorConfig config = {});

  /// Shares an existing compilation of `db`.
  explicit HistogramLocator(
      std::shared_ptr<const CompiledDatabase> compiled,
      HistogramLocatorConfig config = {});

  std::string name() const override { return "histogram"; }

 protected:
  LocationEstimate locate_compiled(
      const CompiledObservation& q) const override;

 private:
  /// One observed slot reduced to bin counts for table scoring.
  struct SlotBins {
    std::uint32_t slot = 0;
    /// (bin, count) pairs; bin == bins_ is the out-of-range cell.
    std::vector<std::pair<std::uint32_t, double>> bins;
    /// 1 / number of raw readings (1.0 for a mean-only slot).
    double inv_n = 1.0;
  };

  std::size_t bin_of(double x) const;
  std::vector<SlotBins> compile_query(const CompiledObservation& q) const;

  HistogramLocatorConfig config_;
  std::size_t bins_ = 0;
  /// Training points padded up to a simd::kLanes multiple — the
  /// column length of every transposed table below.
  std::size_t point_stride_ = 0;
  /// Points-major log-probability table: the column for <slot, bin>
  /// starts at cols_[(slot * (bins_ + 1) + bin) * point_stride_];
  /// bin == bins_ is the out-of-range cell. Cells for untrained
  /// <point, slot> pairs are 0.0 and gated out by `mask_cols_`.
  simd::AlignedDoubles cols_;
  /// Transposed presence mask, one padded column per slot:
  /// mask_cols_[slot * point_stride_ + point].
  simd::AlignedDoubles mask_cols_;
  /// trained_count(p) as doubles, padded, for the vectorized penalty
  /// term.
  simd::AlignedDoubles trained_counts_;
};

}  // namespace loctk::core

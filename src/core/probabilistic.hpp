#pragma once

/// \file probabilistic.hpp
/// The paper's §5.1 probabilistic (maximum-likelihood) locator.
///
/// Training stored, per <training point, AP>, the mean and standard
/// deviation of the RSSI samples. At working time the observed mean
/// vector is scored against every training point with
///
///   value = Π_AP  exp(-(obs - mean)^2 / 2σ²) / sqrt(2πσ²)     (paper eq. 1)
///
/// and the arg-max training point is returned: "this approach does
/// not return the coordinate values of the observed location, but
/// returns the most approximate training location instead."
///
/// We evaluate the product in log space (same arg-max, no underflow)
/// and expose the full per-point scores for the Bayes-grid and
/// tracking layers. `score_all` and `score_batch` run a dense kernel
/// over `CompiledDatabase` matrices; `locate` runs an exact sparse
/// sweep over the cells the observation heard, bit-identical to the
/// dense arg-max (docs/ALGORITHMS.md, "Sparse exact sweep"), and
/// `prune_top_k` no longer affects it. The string-keyed reference
/// likelihood the differential oracle checks them against lives in
/// testkit/locator_reference.hpp.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/compiled_db.hpp"
#include "core/locator.hpp"

namespace loctk::core {

/// Per-cell Gaussian constants of the probabilistic kernel,
///   log_pdf(x) = log_norm - (x - mean)² · inv_two_var,
/// in the two layouts the scorers read. Built once per locator and
/// shared by its copies.
struct GaussianTables {
  /// Dense: row-major points x row_stride(), with exact zeros at
  /// untrained slots and in the stride pad (score_all, score_batch,
  /// the batched quad kernel, and the guarded dense locate).
  simd::ZeroedDoubles log_norm;
  simd::ZeroedDoubles inv_two_var;
  /// Sparse: slot-major CSR postings of the trained cells. The rows
  /// trained at slot s, ascending, and their mean and constants live
  /// at [offsets[s], offsets[s + 1]) — 28 bytes per trained cell.
  struct Postings {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> row;
    std::vector<double> mean;
    std::vector<double> log_norm;
    std::vector<double> inv_two_var;
  } postings;
};

/// Tuning knobs for the likelihood.
struct ProbabilisticConfig {
  /// Lower bound on σ (dB). A training pair whose samples never
  /// varied would otherwise produce a delta-function that vetoes
  /// everything.
  double sigma_floor_db = 1.0;
  /// Log-penalty applied per AP that is present on exactly one side
  /// (heard now but not trained here, or vice versa). Encodes "this
  /// AP's visibility disagrees" without zeroing the product.
  double missing_ap_log_penalty = -6.0;
  /// Points sharing fewer than this many APs with the observation are
  /// skipped entirely.
  int min_common_aps = 1;
  /// Use one sigma per AP, pooled across all training points, instead
  /// of each point's own sample sigma. The paper's formula uses the
  /// per-point sigma; with ~90 samples that estimate is noisy enough
  /// that its -log(sigma) term can flip near-ties toward whichever
  /// cell happened to survey calm (a known fingerprinting pathology).
  /// Pooling removes that term from the decision.
  bool use_pooled_sigma = false;
  /// Retired: no longer changes ProbabilisticLocator in any way.
  /// locate() always runs the exact sparse sweep, which is at least as
  /// fast as the old coarse-to-fine pruned path on every workload and
  /// never prunes. Kept only because benchmark code still sets it.
  int prune_top_k = 0;
  /// Retired with `prune_top_k`; no effect.
  int prune_strongest_aps = 4;
};

/// One scored training point (for diagnostics and the Bayes layer).
struct ScoredPoint {
  const traindb::TrainingPoint* point = nullptr;
  double log_likelihood = 0.0;
  int common_aps = 0;
};

/// The §5.1 locator.
class ProbabilisticLocator : public CompiledLocator {
 public:
  /// `db` must outlive the locator. Compiles the database privately;
  /// prefer the shared-compilation overload when several locators sit
  /// on the same database.
  explicit ProbabilisticLocator(const traindb::TrainingDatabase& db,
                                ProbabilisticConfig config = {});

  /// Shares an existing compilation (the underlying database must
  /// outlive the locator).
  explicit ProbabilisticLocator(
      std::shared_ptr<const CompiledDatabase> compiled,
      ProbabilisticConfig config = {});

  std::string name() const override { return "probabilistic-ml"; }

  /// Log-likelihood of `obs` against every training point, in
  /// database order. Skipped points carry -infinity.
  std::vector<ScoredPoint> score_all(const Observation& obs) const;

  /// score_all for a batch of observations; with a pool the batch is
  /// chunked across workers. Results are index-aligned with `obs`.
  std::vector<std::vector<ScoredPoint>> score_batch(
      std::span<const Observation> obs,
      concurrency::ThreadPool* pool = nullptr) const;

  const ProbabilisticConfig& config() const { return config_; }

  /// Pooled sigma for `bssid` (defined whether or not pooling is
  /// enabled); falls back to the floor for unknown BSSIDs.
  double pooled_sigma_db(const std::string& bssid) const;

 protected:
  LocationEstimate locate_compiled(
      const CompiledObservation& q) const override;

  /// Batched locate, bit-identical to locate() per element either
  /// way. The path follows the compiled database's fill: a sparse map
  /// (fewer than a quarter of its padded cells trained) runs the
  /// per-observation sparse sweep; a dense one runs the
  /// observation-major quad kernel, where four observations occupy
  /// the vector lanes and ride one pass over the training rows with
  /// the whole epilogue (penalties, clamp, arg-max) kept in lanes.
  /// Inputs either guard sends to the dense sweep stay per
  /// observation on both sides.
  void locate_batch_impl(std::span<const Observation> obs,
                         concurrency::ThreadPool* pool,
                         std::span<LocationEstimate> out) const override;

 private:
  void build_kernel_tables();
  /// Row `point`'s stored score from its Gaussian partial sum and
  /// common-AP count: the missing-AP penalties, then the
  /// min_common_aps clamp. Every scoring path ends here.
  ScoredPoint finish_row(std::size_t point, double gauss, int common,
                         const CompiledObservation& q) const;
  /// Dense likelihood of a compiled observation at one row (SIMD
  /// kernel over the padded SoA rows), finished by finish_row.
  ScoredPoint scored_point(std::size_t point,
                           const CompiledObservation& q) const;
  /// Arg-max of scored_point over every row: the dense reference the
  /// sparse sweep reproduces, and the path its guards fall back to.
  LocationEstimate best_of_all(const CompiledObservation& q) const;
  /// The exact sparse sweep: walks only the postings of `q.slots`,
  /// then the same epilogue and arg-max as best_of_all.
  LocationEstimate sweep(const CompiledObservation& q) const;
  /// Four compiled observations through one pass over every training
  /// row via the observation-major kernel (lanes = observations);
  /// writes exactly what locate() would.
  void locate_quad(const CompiledObservation* qs,
                   LocationEstimate* out) const;

  ProbabilisticConfig config_;
  /// Aligned with database().bssid_universe().
  std::vector<double> pooled_sigma_;
  /// The per-cell Gaussian constants (see GaussianTables), shared so
  /// copies of the locator stay cheap.
  std::shared_ptr<const GaussianTables> tables_;
  /// Construction guard: false when some trained cell's unheard term
  /// is non-finite, so skipping it would not add ±0 (locate() then
  /// always runs best_of_all).
  bool sweep_exact_ = true;
  /// Batch path from the data: true when the map is sparse enough
  /// that per-observation sweeps beat the quad kernel.
  bool batch_sweeps_ = false;
};

}  // namespace loctk::core

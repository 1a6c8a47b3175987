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
/// tracking layers. The bulk paths (`score_all`, `locate`,
/// `score_batch`) run a dense kernel over `CompiledDatabase` matrices;
/// the per-point `log_likelihood` keeps the string-keyed form as the
/// readable reference implementation (the equivalence is pinned by
/// tests/core_compiled_db_test.cpp).

#include <span>
#include <vector>

#include "core/candidate_pruner.hpp"
#include "core/compiled_db.hpp"
#include "core/locator.hpp"

namespace loctk::core {

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
  /// Coarse-to-fine pruning: when > 0, locate() scores only the
  /// `prune_top_k` candidate rows a strongest-AP prefilter selects
  /// (each scored with the exact kernel), falling back to the full
  /// pass whenever the prefilter is degenerate or the pruned pass
  /// yields no valid estimate. 0 keeps the exhaustive sweep.
  /// score_all/score_batch always score everything — pruning is a
  /// serve-path (locate) optimization.
  int prune_top_k = 0;
  /// How many of the observation's loudest APs seed the prefilter.
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

  /// Log-likelihood of one observation at one training point —
  /// the string-keyed reference implementation (a sorted two-pointer
  /// merge over the observation and the point's per-AP list).
  /// `penalized_aps`, when given, receives the number of missing-AP
  /// penalty terms applied.
  double log_likelihood(const Observation& obs,
                        const traindb::TrainingPoint& point,
                        int* common_aps = nullptr,
                        int* penalized_aps = nullptr) const;

  const ProbabilisticConfig& config() const { return config_; }

  /// Pooled sigma for `bssid` (defined whether or not pooling is
  /// enabled); falls back to the floor for unknown BSSIDs.
  double pooled_sigma_db(const std::string& bssid) const;

 protected:
  LocationEstimate locate_compiled(
      const CompiledObservation& q) const override;

  /// Batched locate on the observation-major kernel: four observations
  /// occupy the vector lanes and ride one pass over the training rows,
  /// with each row's table values broadcast once and the entire
  /// epilogue (penalties, clamp, arg-max) kept in lanes — no
  /// horizontal reductions anywhere on the hot path. Results are
  /// bit-identical to locate() per element (the kernel reproduces the
  /// slot-major kernel's per-lane partial sums and hsum tree); pruned
  /// configurations route through the per-observation coarse-to-fine
  /// path instead.
  void locate_batch_impl(std::span<const Observation> obs,
                         concurrency::ThreadPool* pool,
                         std::span<LocationEstimate> out) const override;

 private:
  void build_kernel_tables();
  /// Dense likelihood of a compiled observation at one row (SIMD
  /// kernel over the padded SoA rows).
  double score_point(std::size_t point, const CompiledObservation& q,
                     int* common_aps) const;
  /// score_point + the min_common_aps clamp, as stored in results.
  ScoredPoint scored_point(std::size_t point,
                           const CompiledObservation& q) const;
  /// Best estimate among `rows` (exact scores); invalid when every
  /// row is skipped.
  LocationEstimate best_of_rows(std::span<const std::uint32_t> rows,
                                const CompiledObservation& q) const;
  /// best_of_rows over the full database without materializing a row
  /// list (the exhaustive path locate() and the pruner fallback take).
  LocationEstimate best_of_all(const CompiledObservation& q) const;
  /// Four compiled observations through one pass over every training
  /// row via the observation-major kernel (lanes = observations);
  /// writes exactly what locate() would.
  void locate_quad(const CompiledObservation* qs,
                   LocationEstimate* out) const;

  ProbabilisticConfig config_;
  /// Built when config_.prune_top_k > 0 (shared so the locator stays
  /// copyable).
  std::shared_ptr<const CandidatePruner> pruner_;
  /// Aligned with database().bssid_universe().
  std::vector<double> pooled_sigma_;
  /// The per-cell Gaussian constants (see GaussianTables), shared with
  /// the pruner's ML coarse mode so copies of either stay valid.
  std::shared_ptr<const GaussianTables> tables_;
};

}  // namespace loctk::core

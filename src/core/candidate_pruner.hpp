#pragma once

/// \file candidate_pruner.hpp
/// Coarse-to-fine candidate selection for the k-NN locator.
///
/// Brute-force scoring visits every training point per observation.
/// On campus-scale maps almost all of those rows lose by a mile: a
/// training point that never heard the observation's strongest APs is
/// not going to be its nearest neighbor. The pruner exploits that with
/// the same inverted-index idea `signal_index` applies to geometric NN
/// search, but specialized to the SoA scoring path:
///
///  1. At build time, a CSR postings list maps each universe slot to
///     the training rows trained on it.
///  2. Per query, take the `strongest_aps` loudest observed in-universe
///     slots and walk their postings to collect candidate rows. Each
///     touched row is then coarse-scored over ALL of the query's
///     observed slots: the negated squared dBm gap, with untrained
///     slots charged against `missing_dbm` — the exact k-NN distance
///     restricted to the observed dimensions. Scoring only touched
///     rows keeps the cost O(candidates x observed APs), far below an
///     exact full sweep.
///  3. Keep the best `top_k` rows; the caller scores ONLY those with
///     the exact kernel, so every returned estimate is exactly scored
///     (pruning can change *which* rows compete, never their scores).
///
/// Degenerate-query contract: `select` returns an empty vector — and
/// the caller MUST fall back to the full exact pass — when the
/// database is small enough that pruning cannot shrink the work
/// (point_count <= top_k), when the observation has no finite
/// in-universe AP, or when no training row matches any strong AP.
///
/// The gap metric is congruent with the k-NN distance but not with the
/// §5.1 likelihood, which charges a flat penalty per visibility
/// disagreement; the probabilistic locator therefore does not prune at
/// all (its exact sparse sweep is faster), and
/// `ProbabilisticConfig::prune_top_k` no longer affects it.
///
/// Metrics: `score.prune.queries` and `score.prune.candidates_scored`
/// count select() calls and the rows they return,
/// `score.prune.database_points` is the last-built pruner's row count,
/// and the k-NN locator counts `score.prune.fallback_full` when it
/// takes the full pass.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compiled_db.hpp"

namespace loctk::core {

struct PrunerConfig {
  /// How many of the observation's loudest in-universe APs seed the
  /// candidate set.
  int strongest_aps = 4;
  /// Max candidate rows returned for exact scoring.
  int top_k = 32;
  /// Fill level charged when a candidate row never trained an
  /// observed slot — keeps the coarse ranking congruent with the
  /// k-NN distance (KnnConfig::missing_dbm).
  double missing_dbm = -100.0;
};

class CandidatePruner {
 public:
  CandidatePruner(std::shared_ptr<const CompiledDatabase> compiled,
                  PrunerConfig config = {});

  /// Candidate training rows for `q`, sorted ascending (database
  /// order, so downstream scans stay deterministic and prefetchable).
  /// Empty means "degenerate — run the full pass" (see file comment).
  std::vector<std::uint32_t> select(const CompiledObservation& q) const;

  const PrunerConfig& config() const { return config_; }

 private:
  /// select() without the metrics.
  std::vector<std::uint32_t> candidates(const CompiledObservation& q) const;

  std::shared_ptr<const CompiledDatabase> compiled_;
  PrunerConfig config_;
  /// CSR postings: rows trained on slot s live at
  /// postings_[offsets_[s] .. offsets_[s + 1]).
  std::vector<std::uint32_t> postings_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace loctk::core

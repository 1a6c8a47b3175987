#pragma once

/// \file differential.hpp
/// Compiled-vs-reference differential oracle.
///
/// PR-1 gave every fingerprint locator two implementations of the same
/// math: the dense compiled kernel `locate()` actually runs, and the
/// readable string-keyed form (`log_likelihood`, `signal_distance`,
/// `ssd_distance`) kept as executable documentation. The oracle feeds
/// both sides the *same* observation batch (typically windows cut from
/// a recorded trace) and diffs the estimates, so any kernel, interning,
/// or ingest change that silently shifts answers fails conformance
/// instead of shipping.
///
/// For the arg-max locators the check is score-based: the compiled
/// choice must be within `score_tol` of the reference-optimal score
/// *as scored by the reference* — a genuine near-tie between training
/// points is not a defect, picking a reference-refutable point is.
/// For the k-NN family positions and scores are compared directly
/// under tight tolerances; the v2 SIMD kernels accumulate in four
/// lanes, so their sums sit within rounding noise (not bit-for-bit)
/// of the serial reference order. The bit-for-bit contract lives one
/// level down: native-backend kernels vs the scalar fallback lanes
/// (tests/core_scoring_v2_test.cpp).
///
/// `run_pruned_differential` covers the coarse-to-fine pruner the
/// same way: a pruned locator vs its exact twin over the same
/// observations, reporting top-1 agreement (candidates are scored
/// with the exact kernel, so any disagreement means the true winner
/// was pruned out). Only k-NN prunes; the probabilistic pair checks
/// that the retired pruning knobs leave its sparse sweep untouched.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/knn.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "traindb/database.hpp"

namespace loctk::core {
class CompiledDatabase;
}

namespace loctk::testkit {

/// One compiled-vs-reference disagreement.
struct EstimateDiff {
  std::string locator;
  std::size_t observation = 0;
  std::string detail;
};

struct DifferentialConfig {
  /// Max position disagreement (ft) for coordinate-valued estimates.
  double position_tol_ft = 1e-6;
  /// Max score disagreement (log-likelihood / negated distance units).
  double score_tol = 1e-6;
};

struct DifferentialReport {
  std::uint64_t observations = 0;
  /// locator x observation pairs checked.
  std::uint64_t comparisons = 0;
  std::vector<EstimateDiff> mismatches;

  bool ok() const { return mismatches.empty(); }
  std::string to_text() const;
};

/// Runs every dual-implementation locator (probabilistic, place
/// recognition, NNSS, k-NN, SSD, histogram — the last only when `db`
/// retains raw samples) over `observations`, compiled path vs
/// reference path.
DifferentialReport run_differential_oracle(
    const traindb::TrainingDatabase& db,
    const std::vector<core::Observation>& observations,
    const DifferentialConfig& config = {});

/// Pruned-vs-exact differential report. `compared` counts
/// locator x observation comparisons; `top1_agreements` counts those
/// that matched exactly (same validity, winner, and score — the
/// pruned path scores candidates with the exact kernel, so agreement
/// is equality, not tolerance). Every disagreement is listed — on a
/// healthy corpus with sane pruner settings the list is empty, and
/// conformance asserts exactly that.
struct PrunedDifferentialReport {
  std::uint64_t observations = 0;
  std::uint64_t compared = 0;
  std::uint64_t top1_agreements = 0;
  std::vector<EstimateDiff> disagreements;

  bool ok() const { return disagreements.empty(); }
  double agreement_rate() const {
    return compared == 0
               ? 1.0
               : static_cast<double>(top1_agreements) /
                     static_cast<double>(compared);
  }
  std::string to_text() const;
};

/// Runs the probabilistic and k-NN locators twice over `observations`
/// — once with `prune_config`'s pruning knobs set, once with them
/// zeroed — and diffs the top-1 estimates. `prune_config` must have
/// prune_top_k > 0; k-NN takes its top-k and strongest-AP count from
/// it, and the probabilistic locator must ignore them.
PrunedDifferentialReport run_pruned_differential(
    const traindb::TrainingDatabase& db,
    std::span<const core::Observation> observations,
    const core::ProbabilisticConfig& prune_config);

/// Exact structural diff of two compilations — the delta-compile
/// oracle gate. Zero tolerance: delta compilation copies or re-interns
/// the very same doubles a from-scratch build writes, so the source
/// database, universe, strides, every matrix cell (pad included), and
/// the per-row trained counts must be identical. Any difference is a
/// defect, never rounding.
struct CompiledDiffReport {
  std::uint64_t cells_compared = 0;
  /// Human-readable mismatch descriptions, capped at 32 entries
  /// (`truncated` reports the overflow).
  std::vector<std::string> mismatches;
  std::uint64_t truncated = 0;

  bool ok() const { return mismatches.empty() && truncated == 0; }
  std::string to_text() const;
};

CompiledDiffReport compare_compiled_databases(
    const core::CompiledDatabase& delta,
    const core::CompiledDatabase& rebuild);

}  // namespace loctk::testkit

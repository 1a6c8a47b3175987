#pragma once

/// \file differential.hpp
/// Compiled-vs-reference differential oracle.
///
/// Every fingerprint locator has two implementations of the same math:
/// the compiled kernel `locate()` actually runs, and the readable
/// string-keyed form in testkit/locator_reference.hpp, kept as
/// executable documentation. The oracle feeds both sides the *same*
/// observation batch (typically windows cut from a recorded trace) and
/// diffs the estimates, so any kernel, interning, or ingest change that
/// silently shifts answers fails conformance instead of shipping.
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

#include <cstdint>
#include <string>
#include <vector>

#include "core/observation.hpp"
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

#pragma once

/// \file drift.hpp
/// The drift-recovery scenario: prove the radio map is a *living*
/// artifact, end to end.
///
/// golden.hpp gates the paper's §5.1/§5.2 accuracy on a freshly
/// surveyed site; this harness gates what the paper never measured —
/// what happens when the site changes out from under the survey, and
/// whether the lifecycle layer (lifecycle/janitor.hpp) brings accuracy
/// back. Each rerun plays one full decay-and-recovery arc:
///
///  1. **Baseline** — survey the paper house (plus a fifth AP so one
///     can vanish and still leave the paper's four-AP geometry),
///     publish it through a live `serve::LocationServer`, and measure
///     §5.1-style accuracy.
///  2. **Drift** — rebuild the world with one AP moved, one AP's
///     transmit power cut, and one AP removed. The *served* map is now
///     stale; accuracy against the drifted world is measured (and must
///     degrade) while a monitoring walk feeds the janitor's
///     `DriftMonitor`, which must flag both shifted and vanished
///     pairs.
///  3. **Recovery** — resurvey every training point from the drifted
///     world through quarantined intake (hostile dwells ride along and
///     must be quarantined), `tick()` the janitor so the delta-compiled
///     snapshot swaps in under the same server, and measure again. The
///     recovered map must land back inside the §5.1/§5.2 golden bands,
///     and the delta-compilation must be bit-exact against a
///     from-scratch rebuild (`compare_compiled_databases`).
///
/// Violations are collected, not thrown, in the style of the soak
/// harness (server_soak.hpp); `DriftSoakResult::ok()` is the gate the
/// conformance suite and the nightly `soak_fleet --drift` leg assert.

#include <cstdint>
#include <string>
#include <vector>

#include "core/probabilistic.hpp"
#include "lifecycle/janitor.hpp"

namespace loctk::testkit {

struct DriftScenarioConfig {
  /// Independent decay-and-recovery arcs (fresh seeds each); the band
  /// gates judge means across reruns, like `run_paper_golden`.
  int reruns = 4;
  std::uint64_t seed_base = 1;
  /// Survey dwell length, training and resurvey alike (§5.1: ~1.5 min
  /// of scans per point).
  int train_scans = 90;
  /// Scans per working-phase observation at each test point.
  int observe_scans = 90;
  /// The monitoring walk: rounds over the training grid feeding the
  /// drift monitor, and scans per dwell. Rounds must comfortably
  /// exceed the drift warm-up (`DriftConfig::min_updates`) and the
  /// visibility decay needed to cross `vanish_visibility`.
  int monitor_rounds = 16;
  int monitor_scans = 4;
  /// Served locator settings. Every config runs the same exact sparse
  /// sweep; the retired prune fields change nothing.
  core::ProbabilisticConfig prob_config;
  lifecycle::JanitorConfig janitor;
};

struct DriftSoakResult {
  int reruns = 0;

  // Means across reruns; valid rates are §5.1 cell-correct fractions,
  // errors are §5.2-style mean deviations in feet.
  double baseline_valid_rate = 0.0;
  double baseline_mean_error_ft = 0.0;
  double stale_valid_rate = 0.0;        ///< stale map on drifted world
  double stale_mean_error_ft = 0.0;
  double recovered_valid_rate = 0.0;    ///< republished map, same world
  double recovered_mean_error_ft = 0.0;
  double recovered_geometric_mean_error_ft = 0.0;  ///< §5.2 gate

  // Lifecycle evidence, summed across reruns.
  std::uint64_t shifted_pairs = 0;      ///< pre-republish kShifted flags
  std::uint64_t vanished_pairs = 0;     ///< pre-republish kVanished flags
  std::uint64_t quarantined = 0;        ///< hostile dwells rejected
  std::uint64_t accepted_surveys = 0;
  std::uint64_t republishes = 0;
  std::uint64_t differential_cells = 0; ///< delta-vs-rebuild cells compared

  /// Human-readable gate breaches; empty means the scenario passed.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  std::string to_text() const;
};

/// Runs the decay-and-recovery arcs and judges them.
DriftSoakResult run_drift_soak(const DriftScenarioConfig& config = {});

}  // namespace loctk::testkit

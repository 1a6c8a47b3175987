#pragma once

/// \file golden.hpp
/// Golden paper-band gates: the §5 numbers as assertable artifacts.
///
/// The paper's headline results — §5.1 "60% observations end up with a
/// valid estimation" and §5.2's ~15 ft average deviation — were
/// reproduced by the bench harnesses (bench/sec51, bench/sec52) as
/// *printed* bands. This header promotes them to data the conformance
/// suite asserts on: `run_paper_golden` reruns the paper experiment
/// over the same independent seeds the benches use and returns the
/// band means; the `kSec51ValidRateBand` / `kSec52MeanErrorBandFt`
/// constants encode the accepted envelopes (calibrated from 20-rerun
/// seed measurements: 53% ± 11% valid rate, 11.9 ± 1.0 ft deviation).
/// Any kernel or ingest change that drifts accuracy out of a band now
/// fails CI instead of silently shifting a printout.
///
/// `PaperExperiment` (the standard §5 setup: 50x40 house, 10-ft grid,
/// 13 scattered test points, 90-scan dwells) lives here so the benches
/// and the conformance tests share one definition; `bench_util.hpp`
/// re-exports it.

#include <cstdint>
#include <vector>

#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "core/probabilistic.hpp"
#include "radio/environment.hpp"
#include "traindb/database.hpp"

namespace loctk::testkit {

// The paper's §5.1 experimental constants.
inline constexpr int kTrainScans = 90;  // ~1.5 min at 1 scan/s
inline constexpr int kObserveScans = 90;
inline constexpr double kGridSpacingFt = 10.0;
inline constexpr int kTestPoints = 13;

/// The paper's standard experimental setup, fully determined by
/// `seed_base`: train on seed_base*1000+1, observe on seed_base*1000+2.
struct PaperExperiment {
  explicit PaperExperiment(std::uint64_t seed_base = 1,
                           radio::ChannelConfig channel = {})
      : testbed(radio::make_paper_house(), radio::PropagationConfig{},
                channel),
        training_map(core::make_training_grid(
            testbed.environment().footprint(), kGridSpacingFt)),
        db(testbed.train(training_map, kTrainScans, seed_base * 1000 + 1)),
        truths(core::make_scattered_test_points(
            testbed.environment().footprint(), kTestPoints)),
        observations(
            testbed.observe(truths, kObserveScans, seed_base * 1000 + 2)) {}

  core::Testbed testbed;
  wiscan::LocationMap training_map;
  traindb::TrainingDatabase db;
  std::vector<geom::Vec2> truths;
  std::vector<core::Observation> observations;
};

/// An accepted envelope for a golden scalar.
struct GoldenBand {
  double lo = 0.0;
  double hi = 0.0;
  constexpr bool contains(double v) const { return v >= lo && v <= hi; }
};

/// §5.1: mean valid-estimation rate over the rerun seeds must sit in
/// the paper-shaped 50-75% band around the reported 60%.
inline constexpr GoldenBand kSec51ValidRateBand{0.50, 0.75};

/// §5.2: mean deviation (ft) of the geometric locator over the rerun
/// seeds; the paper band is ~15 ft, our seeded channel lands at
/// 11.9 ± 1.0 ft.
inline constexpr GoldenBand kSec52MeanErrorBandFt{9.0, 16.0};

/// The band means `run_paper_golden` measured.
struct PaperGoldenSummary {
  int reruns = 0;
  /// §5.1 probabilistic locator: mean valid-estimation rate (0..1)
  /// and mean error (ft) over the sec51 rerun seeds (seed*7+100).
  double sec51_valid_rate = 0.0;
  double sec51_mean_error_ft = 0.0;
  /// §5.2 geometric locator: mean deviation (ft) over the sec52 rerun
  /// seeds (seed*11+500), plus the probabilistic locator on the same
  /// experiments for the paper's fingerprinting-wins crossover.
  double sec52_mean_error_ft = 0.0;
  double sec52_probabilistic_mean_error_ft = 0.0;
};

/// Reruns the §5.1 and §5.2 experiments over `reruns` independent
/// survey/test days (the same seed formulas as bench/sec51 and
/// bench/sec52, so the gates measure exactly what the benches print).
/// `prob_config` parameterizes every probabilistic locator in the
/// run. Each one locates by the exact sparse sweep whatever the
/// config's retired prune fields hold.
PaperGoldenSummary run_paper_golden(int reruns = 20,
                                    core::ProbabilisticConfig prob_config = {});

}  // namespace loctk::testkit

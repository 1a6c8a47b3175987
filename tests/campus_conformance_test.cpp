// loctk_campus_conformance — the campus-scale golden gates (ctest
// label: conformance).
//
// The paper's gates (conformance_paper_test.cpp) pin the §5 numbers on
// the 50x40 ft house. This suite pins the same machinery at campus
// cardinality — a generated 2-building x 3-floor campus with 1000+
// APs, surveyed room-by-room and driven by a heterogeneous-device
// fleet — so the compiled kernels, the interner, and the floor
// selector cannot quietly shed correctness at the scale they exist
// for:
//
//  * the differential oracle (probabilistic, place recognition, NNSS,
//    k-NN, SSD) must show zero compiled-vs-reference mismatches over
//    fleet observations on the merged campus database;
//  * floor selection over the per-floor databases must reach >= 95%
//    accuracy probing surveyed rooms, with per-floor in-floor error
//    bands holding on every one of the six floors.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/floor_selector.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "radio/campus.hpp"
#include "radio/scanner.hpp"
#include "testkit/differential.hpp"
#include "testkit/scenario.hpp"
#include "testkit/trace.hpp"

namespace loctk::testkit {
namespace {

/// The default campus already clears the scale bar this suite exists
/// for (2 buildings x 3 floors x 170 APs = 1020). A trimmed survey
/// keeps the six 40-room floor surveys inside the conformance budget.
ScenarioSpec campus_spec() {
  ScenarioSpec spec = ScenarioSpec::campus_fleet(
      /*device_count=*/12, /*scans_per_device=*/10, /*seed=*/77);
  spec.train_scans = 6;
  return spec;
}

/// One shared materialized campus for the whole suite: the survey runs
/// six 40-room floors against a 1020-AP radio model, so recomputing it
/// per test would multiply the suite time.
const Scenario& campus_scenario() {
  static const Scenario scenario(campus_spec());
  return scenario;
}

const std::vector<core::Observation>& fleet_observations() {
  static const std::vector<core::Observation> observations =
      observations_from_trace(campus_scenario().record_trace(), 5);
  return observations;
}

TEST(CampusConformance, GeneratedCampusClearsTheScaleBar) {
  const radio::Campus& campus = campus_scenario().campus();
  EXPECT_GE(campus.building_count(), 2u);
  EXPECT_GE(campus.floors_per_building(), 3u);
  EXPECT_GE(campus.total_ap_count(), 1000u);
  // One database per flat floor, plus a merged database whose point
  // count is the whole survey.
  const auto& floors = campus_scenario().floor_databases();
  ASSERT_EQ(floors.size(), campus.floor_count());
  std::size_t surveyed = 0;
  for (const auto& db : floors) surveyed += db.size();
  EXPECT_EQ(campus_scenario().database().size(), surveyed);
  EXPECT_GE(campus_scenario().database().bssid_universe().size(), 1000u);
}

TEST(CampusConformance, DifferentialOracleZeroMismatches) {
  const auto& observations = fleet_observations();
  ASSERT_FALSE(observations.empty());
  // Campus surveys do not retain raw samples, so the histogram pair
  // sits this one out: probabilistic, place recognition, NNSS, k-NN,
  // and SSD race compiled-vs-reference.
  const DifferentialReport report =
      run_differential_oracle(campus_scenario().database(), observations);
  EXPECT_EQ(report.comparisons, observations.size() * 5);
  EXPECT_TRUE(report.ok()) << report.to_text();
}

TEST(CampusConformance, FloorSelectionAccuracyAndPerFloorErrorBands) {
  const Scenario& scenario = campus_scenario();
  const radio::Campus& campus = scenario.campus();
  std::vector<const traindb::TrainingDatabase*> floors;
  for (const auto& db : scenario.floor_databases()) floors.push_back(&db);
  core::ProbabilisticConfig config;
  config.prune_top_k = 32;
  config.prune_strongest_aps = 4;
  const core::FloorSelector selector(floors, config);
  ASSERT_EQ(selector.floor_count(), campus.floor_count());

  // Probe every fourth surveyed room on every floor (10 probes per
  // floor, 60 total). Floor selection is only meaningful at places
  // the survey covered — a receiver between rooms sees within-floor
  // mismatch larger than the slab separation.
  int total = 0;
  int correct = 0;
  std::vector<double> error_sum_ft(campus.floor_count(), 0.0);
  std::vector<int> error_n(campus.floor_count(), 0);
  for (std::size_t b = 0; b < campus.building_count(); ++b) {
    const auto rooms = campus.room_centers(b);
    for (std::size_t f = 0; f < campus.floors_per_building(); ++f) {
      const std::size_t flat = campus.flat_floor(b, f);
      const radio::CampusFloorView view(campus, b, f);
      radio::Scanner scanner(view, radio::ChannelConfig{},
                             7000 + flat);
      for (std::size_t r = 0; r < rooms.size(); r += 4) {
        scanner.reset_session();
        const core::Observation obs = core::Observation::from_scans(
            scanner.collect(rooms[r], 16));
        const core::FloorEstimate est = selector.locate(obs);
        ASSERT_TRUE(est.valid);
        ++total;
        if (est.floor == flat) {
          ++correct;
          ASSERT_TRUE(est.estimate.valid);
          error_sum_ft[flat] +=
              geom::distance(est.estimate.position, rooms[r]);
          ++error_n[flat];
        }
      }
    }
  }

  // The headline gate: >= 95% of probes land on their true floor.
  EXPECT_GE(correct, (total * 95 + 99) / 100)
      << correct << "/" << total << " floors correct";

  // Per-floor in-floor error bands: probing a surveyed room center
  // must localize to about that room (rooms sit on a 30 ft grid, so a
  // 20 ft mean allows the occasional adjacent-room pick but flags a
  // kernel or interning regression on any single floor).
  for (std::size_t flat = 0; flat < campus.floor_count(); ++flat) {
    ASSERT_GT(error_n[flat], 0) << "floor " << flat << " had no correct fix";
    const double mean_ft =
        error_sum_ft[flat] / static_cast<double>(error_n[flat]);
    EXPECT_LT(mean_ft, 20.0)
        << "floor " << flat << " mean in-floor error " << mean_ft << " ft";
  }
}

TEST(CampusConformance, CampusTraceReplaysByteForByte) {
  // Same determinism contract the single-site gates pin, at campus
  // cardinality: recording the fleet twice yields identical bytes,
  // and the codec round-trips the 1000+-BSSID table exactly.
  const ScanTrace trace = campus_scenario().record_trace();
  const std::string bytes = encode_trace(trace);
  EXPECT_EQ(encode_trace(campus_scenario().record_trace()), bytes);
  const Result<ScanTrace> decoded = try_decode_trace(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), trace);
}

}  // namespace
}  // namespace loctk::testkit

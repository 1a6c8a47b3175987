// PERF — campus-cardinality serving costs: the compiled scoring
// engine on a generated 2-building x 3-floor campus (1020 APs, 240
// surveyed rooms) instead of the single-floor office corpus
// perf_score_kernel uses. The interesting deltas live here, not
// there: a window hears under a tenth of the universe, so the sparse
// sweep skips most cells and batches take it instead of the quad
// kernel; floor selection folds six per-floor locators per fix,
// compiling a 1000-slot universe is the unit of work every snapshot
// swap pays, and a served session merges each ~67-sample scan into a
// ~500-reading window. Every row is timed on the wall clock and
// repeated 5 times (bench::wall_clock); BENCH_campus.json records the
// checked-in aggregates.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "bench_metrics.hpp"
#include "core/compiled_db.hpp"
#include "core/floor_selector.hpp"
#include "core/knn.hpp"
#include "core/location_service.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "radio/campus.hpp"
#include "radio/scanner.hpp"
#include "stats/rng.hpp"
#include "testkit/scenario.hpp"

using namespace loctk;

namespace {

struct CampusCorpus {
  CampusCorpus() : scenario(make_spec()) {
    for (const auto& db : scenario.floor_databases()) floors.push_back(&db);
    const radio::Campus& campus = scenario.campus();
    const auto rooms = campus.room_centers(0);
    const radio::CampusFloorView view(campus, 0, 0);
    radio::Scanner scanner(view, radio::ChannelConfig{}, 99);
    observation =
        core::Observation::from_scans(scanner.collect(rooms[3], 8));
    // A working-phase batch: 64 clients spread over the floor's rooms.
    for (std::size_t i = 0; i < 64; ++i) {
      batch.push_back(core::Observation::from_scans(
          scanner.collect(rooms[(i * 7) % rooms.size()], 8)));
    }
    // Device 0's recorded walk, as the NIC reported it (sorted by
    // BSSID) and with every scan's samples shuffled.
    const testkit::ScanTrace trace = scenario.record_trace();
    const auto by_device = trace.scans_by_device();
    for (const std::size_t i : by_device.front()) {
      walk.push_back(trace.scans[i].scan);
    }
    shuffled_walk = walk;
    stats::Rng rng(56);
    for (radio::ScanRecord& scan : shuffled_walk) {
      for (std::size_t k = scan.samples.size(); k > 1; --k) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
        std::swap(scan.samples[k - 1], scan.samples[pick]);
      }
    }
  }

  static testkit::ScenarioSpec make_spec() {
    testkit::ScenarioSpec spec =
        testkit::ScenarioSpec::campus_fleet(4, 2, /*seed=*/55);
    spec.train_scans = 6;
    // Only the recorded trace reads the device specs: a longer walk
    // for device 0 leaves the survey and database unchanged.
    spec.devices.front().scans = 64;
    return spec;
  }

  testkit::Scenario scenario;
  std::vector<const traindb::TrainingDatabase*> floors;
  core::Observation observation;
  std::vector<core::Observation> batch;
  std::vector<radio::ScanRecord> walk;
  std::vector<radio::ScanRecord> shuffled_walk;
};

const CampusCorpus& campus() {
  static const CampusCorpus c;
  return c;
}

// The exact sparse sweep: only the cells of the ~100 heard APs out of
// 240 rows x 1020-slot rows.
void BM_CampusLocate(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const core::ProbabilisticLocator locator(c.scenario.database());
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate(c.observation));
  }
  state.counters["points"] =
      static_cast<double>(c.scenario.database().size());
  state.counters["universe"] = static_cast<double>(
      c.scenario.database().bssid_universe().size());
}
BENCHMARK(BM_CampusLocate)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// 64 observations through locate_batch: a campus map is sparse, so the
// batch runs one sweep per observation (perf_score_kernel's
// BM_Batch64_DenseSerial covers the quad-kernel side).
void BM_CampusLocateBatch64(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const core::ProbabilisticLocator locator(c.scenario.database());
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate_batch(c.batch));
  }
  state.counters["obs"] = static_cast<double>(c.batch.size());
}
BENCHMARK(BM_CampusLocateBatch64)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// RADAR k-NN (k = 3) at campus scale: the exact dense sweep over all
// 240 rows x 1020 slots, the only k-NN path there is, rotating over 16
// of the batch's observations. Nothing served runs k-NN; the row keeps
// its campus cost on record.
void BM_CampusKnn(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const core::KnnLocator knn(c.scenario.database(), core::KnnConfig{.k = 3});
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.locate(c.batch[i++ % 16]));
  }
}
BENCHMARK(BM_CampusKnn)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// Floor determination + in-floor fix: six per-floor locates plus the
// per-term normalized fold.
void BM_CampusFloorSelect(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const core::FloorSelector selector(c.floors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.locate(c.observation));
  }
  state.counters["floors"] = static_cast<double>(selector.floor_count());
}
BENCHMARK(BM_CampusFloorSelect)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// What every republish of a campus site pays before its snapshot can
// swap in: one compile of the merged 1000-slot database.
void BM_CampusCompileDatabase(benchmark::State& state) {
  const CampusCorpus& c = campus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CompiledDatabase::compile(c.scenario.database()));
  }
}
BENCHMARK(BM_CampusCompileDatabase)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

// One served scan end to end, minus the server's routing: an unbound
// session with a full window replays device 0's walk through the served
// ProbabilisticLocator — the door, the BSSID lookups of the new scan,
// the merge into the window's sorted run, the sparse locate and the
// Kalman step. /shuffled:0 keeps the trace's BSSID order (every
// scanbench workload delivers scans sorted), so the merge skips its
// per-scan sort; /shuffled:1 pays it.
void BM_CampusOnScan(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const std::vector<radio::ScanRecord>& walk =
      state.range(0) == 0 ? c.walk : c.shuffled_walk;
  const core::ProbabilisticLocator locator(c.scenario.database());
  core::LocationService session{core::LocationServiceConfig{}};
  std::size_t i = 0;
  for (; i < session.config().window_scans; ++i) {
    session.on_scan(locator, walk[i % walk.size()]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.on_scan(locator, walk[i % walk.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  std::size_t samples = 0;
  for (const radio::ScanRecord& scan : walk) samples += scan.samples.size();
  state.counters["samples_per_scan"] =
      static_cast<double>(samples) / static_cast<double>(walk.size());
}
BENCHMARK(BM_CampusOnScan)
    ->Apply(bench::wall_clock)
    ->ArgName("shuffled")->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_campus")

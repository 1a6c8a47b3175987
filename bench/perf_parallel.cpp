// PERF — the shared-memory parallel substrate: training-database
// generation and fine-grid likelihood search, serial vs thread pool.
//
// Workload: a larger office floor (120x80 ft, 6 APs) surveyed on a
// 5-ft grid gives a few hundred training points — enough for the
// parallel builder and the grid locator to matter. Every row is timed
// on the wall clock and repeated 5 times (bench::wall_clock): the
// parallel rows hand their work to a pool, so the main thread's CPU
// time would undercount them.

#include <benchmark/benchmark.h>

#include "bench_metrics.hpp"
#include "bench_util.hpp"
#include "concurrency/parallel_for.hpp"
#include "core/grid_locator.hpp"
#include "core/knn.hpp"
#include "core/probabilistic.hpp"
#include "traindb/generator.hpp"
#include "wiscan/survey.hpp"

using namespace loctk;

namespace {

struct OfficeCorpus {
  OfficeCorpus()
      : testbed(radio::make_office_floor(6)),
        map(core::make_training_grid(testbed.environment().footprint(),
                                     5.0)) {
    radio::Scanner scanner = testbed.make_scanner(31337);
    wiscan::SurveyConfig cfg;
    cfg.scans_per_location = 60;
    wiscan::SurveyCampaign campaign(scanner, cfg);
    collection = campaign.run(map);
    db = traindb::generate_database(collection, map);
    observation = core::Observation::from_scans(
        testbed.make_scanner(424242).collect({60.0, 40.0}, 30));
  }

  core::Testbed testbed;
  wiscan::LocationMap map;
  wiscan::Collection collection;
  traindb::TrainingDatabase db;
  core::Observation observation;
};

const OfficeCorpus& office() {
  static const OfficeCorpus c;
  return c;
}

// generate_database on a 1-thread pool: the serial form.
void BM_GenerateSerial(benchmark::State& state) {
  const OfficeCorpus& c = office();
  concurrency::ThreadPool pool(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traindb::generate_database(c.collection, c.map, {}, nullptr, &pool));
  }
}
BENCHMARK(BM_GenerateSerial)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

// On a pool of range(0) threads.
void BM_GenerateParallel(benchmark::State& state) {
  const OfficeCorpus& c = office();
  concurrency::ThreadPool pool(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traindb::generate_database(c.collection, c.map, {}, nullptr, &pool));
  }
}
BENCHMARK(BM_GenerateParallel)
    ->Apply(bench::wall_clock)
    ->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// On the default pool, as generate_database runs without a pool.
void BM_GenerateDefaultPool(benchmark::State& state) {
  const OfficeCorpus& c = office();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::generate_database(c.collection, c.map));
  }
}
BENCHMARK(BM_GenerateDefaultPool)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_GridLocateSerial(benchmark::State& state) {
  const OfficeCorpus& c = office();
  core::GridLocatorConfig cfg;
  cfg.grid_pitch_ft = 2.0;
  cfg.parallel = false;
  const core::GridLocator locator(c.db, c.testbed.environment().footprint(),
                                  cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate(c.observation));
  }
}
BENCHMARK(BM_GridLocateSerial)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_GridLocateParallel(benchmark::State& state) {
  const OfficeCorpus& c = office();
  core::GridLocatorConfig cfg;
  cfg.grid_pitch_ft = 2.0;
  cfg.parallel = true;
  const core::GridLocator locator(c.db, c.testbed.environment().footprint(),
                                  cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate(c.observation));
  }
}
BENCHMARK(BM_GridLocateParallel)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_KnnBruteForce(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::KnnLocator knn(c.db, core::KnnConfig{.k = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.locate(c.observation));
  }
}
BENCHMARK(BM_KnnBruteForce)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

void BM_ProbabilisticLocate(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate(c.observation));
  }
}
BENCHMARK(BM_ProbabilisticLocate)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

void BM_ParallelForOverhead(benchmark::State& state) {
  concurrency::ThreadPool pool(4);
  std::vector<double> sink(10000, 1.0);
  for (auto _ : state) {
    concurrency::parallel_for(pool, 0, sink.size(), [&](std::size_t i) {
      sink[i] = sink[i] * 1.0000001 + 0.5;
    });
    benchmark::DoNotOptimize(sink.data());
  }
}
BENCHMARK(BM_ParallelForOverhead)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

void BM_ScanSimulation(benchmark::State& state) {
  const OfficeCorpus& c = office();
  radio::Scanner scanner = c.testbed.make_scanner(5555);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan_at({33.0, 44.0}));
  }
}
BENCHMARK(BM_ScanSimulation)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_parallel")

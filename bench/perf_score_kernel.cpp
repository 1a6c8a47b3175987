// PERF — the compiled scoring engine: seed string-keyed scoring vs
// the dense CompiledDatabase kernels, serial and batched across the
// thread pool.
//
// Workload: the office corpus from perf_parallel (120x80 ft, 6 APs,
// 5-ft survey grid -> ~400 training points), scored by the §5.1
// probabilistic locator and the RADAR k-NN baseline. The "seed" BMs
// reproduce the original per-<point, AP> string-keyed loops
// (Observation::mean_of + linear TrainingPoint::find) exactly as the
// growth seed shipped them, so the JSON trajectory keeps an honest
// baseline even as the reference paths improve. Every entry is timed
// on the wall clock (the batch rows hand work to a pool) and repeated
// 5 times; BENCH_score_kernel.json records the checked-in aggregates.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <string_view>

#include "base/simd.hpp"
#include "bench_metrics.hpp"
#include "bench_util.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/compiled_db.hpp"
#include "core/knn.hpp"
#include "core/probabilistic.hpp"
#include "stats/gaussian.hpp"
#include "testkit/locator_reference.hpp"
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
    // A working-phase batch: 64 concurrent clients scattered over the
    // floor.
    radio::Scanner batch_scanner = testbed.make_scanner(777);
    for (int i = 0; i < 64; ++i) {
      const double x = 5.0 + 110.0 * ((i * 37) % 64) / 64.0;
      const double y = 5.0 + 70.0 * ((i * 11) % 64) / 64.0;
      batch.push_back(
          core::Observation::from_scans(batch_scanner.collect({x, y}, 8)));
    }
  }

  core::Testbed testbed;
  wiscan::LocationMap map;
  wiscan::Collection collection;
  traindb::TrainingDatabase db;
  core::Observation observation;
  std::vector<core::Observation> batch;
};

const OfficeCorpus& office() {
  static const OfficeCorpus c;
  return c;
}

// The growth seed's §5.1 inner loop, verbatim: a string-keyed
// mean_of() per trained AP plus a linear find() per observed AP.
double seed_log_likelihood(const core::ProbabilisticLocator& locator,
                           const core::Observation& obs,
                           const traindb::TrainingPoint& point,
                           int* common_aps) {
  const core::ProbabilisticConfig& config = locator.config();
  double total = 0.0;
  int common = 0;
  for (const traindb::ApStatistics& ap : point.per_ap) {
    const auto observed = obs.mean_of(ap.bssid);
    if (observed) {
      stats::Gaussian g = ap.gaussian(config.sigma_floor_db);
      if (config.use_pooled_sigma) {
        g.sigma = locator.pooled_sigma_db(ap.bssid);
      }
      total += g.log_pdf(*observed);
      ++common;
    } else {
      total += config.missing_ap_log_penalty;
    }
  }
  for (const core::ObservedAp& oap : obs.aps()) {
    bool trained = false;
    for (const traindb::ApStatistics& ap : point.per_ap) {
      if (ap.bssid == oap.bssid) {
        trained = true;
        break;
      }
    }
    if (!trained) total += config.missing_ap_log_penalty;
  }
  if (common_aps) *common_aps = common;
  return total;
}

void BM_ScoreAll_SeedStringKeyed(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  for (auto _ : state) {
    double best = -1e300;
    for (const traindb::TrainingPoint& p : c.db.points()) {
      int common = 0;
      const double ll =
          seed_log_likelihood(locator, c.observation, p, &common);
      if (common >= 1 && ll > best) best = ll;
    }
    benchmark::DoNotOptimize(best);
  }
  state.counters["points"] = static_cast<double>(c.db.size());
}
BENCHMARK(BM_ScoreAll_SeedStringKeyed)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

void BM_ScoreAll_ReferenceMerge(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  for (auto _ : state) {
    double best = -1e300;
    for (const traindb::TrainingPoint& p : c.db.points()) {
      int common = 0;
      const double ll = testkit::reference_log_likelihood(
          locator, c.observation, p, &common);
      if (common >= 1 && ll > best) best = ll;
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_ScoreAll_ReferenceMerge)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

void BM_ScoreAll_DenseSerial(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.score_all(c.observation));
  }
}
BENCHMARK(BM_ScoreAll_DenseSerial)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

void BM_Locate_Dense(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate(c.observation));
  }
}
BENCHMARK(BM_Locate_Dense)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// RADAR k-NN: seed universe-scan with per-BSSID string lookups vs the
// dense pre-filled signature matrix.
void BM_Knn_SeedStringKeyed(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::KnnLocator knn(c.db, core::KnnConfig{.k = 3});
  const auto& universe = c.db.bssid_universe();
  for (auto _ : state) {
    double best = 1e300;
    for (const traindb::TrainingPoint& p : c.db.points()) {
      double sum2 = 0.0;
      for (const std::string& bssid : universe) {
        const traindb::ApStatistics* trained = nullptr;
        for (const traindb::ApStatistics& s : p.per_ap) {
          if (s.bssid == bssid) {
            trained = &s;
            break;
          }
        }
        const auto observed = c.observation.mean_of(bssid);
        const double a =
            trained ? trained->mean_dbm : knn.config().missing_dbm;
        const double b = observed.value_or(knn.config().missing_dbm);
        sum2 += (a - b) * (a - b);
      }
      best = std::min(best, std::sqrt(sum2));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_Knn_SeedStringKeyed)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

void BM_Knn_Dense(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::KnnLocator knn(c.db, core::KnnConfig{.k = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.locate(c.observation));
  }
}
BENCHMARK(BM_Knn_Dense)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// Batched localization: 64 observations through locate_batch, serial
// vs chunked across the thread pool.
void BM_Batch64_DenseSerial(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate_batch(c.batch));
  }
  state.counters["obs"] = static_cast<double>(c.batch.size());
}
BENCHMARK(BM_Batch64_DenseSerial)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_Batch64_DenseParallel(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  concurrency::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate_batch(c.batch, &pool));
  }
  state.counters["obs"] = static_cast<double>(c.batch.size());
}
BENCHMARK(BM_Batch64_DenseParallel)
    ->Apply(bench::wall_clock)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The v2 scoring engine: cache-blocked score_batch throughput
// (observations/sec via items_per_second). `simd` in the counters
// records which backend the binary dispatched to ("avx2"/"neon" = 1,
// scalar fallback = 0) so the JSON trajectory stays interpretable
// across build configurations.
void BM_ScoreBatch64_Blocked(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.score_batch(c.batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.batch.size()));
  state.counters["points"] = static_cast<double>(c.db.size());
  state.counters["simd"] = std::string_view(simd::backend()) != "scalar";
}
BENCHMARK(BM_ScoreBatch64_Blocked)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_ScoreBatch64_BlockedParallel(benchmark::State& state) {
  const OfficeCorpus& c = office();
  const core::ProbabilisticLocator locator(c.db);
  concurrency::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.score_batch(c.batch, &pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.batch.size()));
}
BENCHMARK(BM_ScoreBatch64_BlockedParallel)
    ->Apply(bench::wall_clock)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Compilation cost itself, to show it amortizes.
void BM_CompileDatabase(benchmark::State& state) {
  const OfficeCorpus& c = office();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CompiledDatabase(c.db));
  }
}
BENCHMARK(BM_CompileDatabase)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_score_kernel")

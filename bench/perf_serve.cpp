// PERF — the multi-tenant serving core: LocationServer::on_scan
// throughput across thread counts (the headline scans/sec scaling
// number), the same traffic with a hot-swap storm running against it,
// and the microcosts underneath: the epoch pin, the session lookup,
// and a full snapshot swap.
//
// The office corpus matches perf_score_kernel (120x80 ft, 6 APs, 5-ft
// grid); every site snapshot is a §5.1 probabilistic locator — the
// production serve configuration. Every row is timed on the wall clock
// with 5 repetitions (bench::wall_clock); BENCH_serve.json records the
// aggregates of one run.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench_metrics.hpp"
#include "core/compiled_db.hpp"
#include "core/pipeline.hpp"
#include "core/probabilistic.hpp"
#include "radio/environment.hpp"
#include "serve/epoch.hpp"
#include "serve/location_server.hpp"
#include "serve/session_table.hpp"
#include "traindb/generator.hpp"
#include "wiscan/survey.hpp"

using namespace loctk;

namespace {

struct ServeCorpus {
  ServeCorpus()
      : testbed(radio::make_office_floor(6)),
        map(core::make_training_grid(testbed.environment().footprint(),
                                     5.0)) {
    radio::Scanner scanner = testbed.make_scanner(31337);
    wiscan::SurveyConfig cfg;
    cfg.scans_per_location = 60;
    wiscan::SurveyCampaign campaign(scanner, cfg);
    collection = campaign.run(map);
    db = traindb::generate_database(collection, map);
    compiled = core::CompiledDatabase::compile(db);
    // Working-phase traffic: single scans from clients scattered over
    // the floor, replayed round-robin by the bench loops.
    radio::Scanner traffic = testbed.make_scanner(777);
    for (int i = 0; i < 256; ++i) {
      const double x = 5.0 + 110.0 * ((i * 37) % 256) / 256.0;
      const double y = 5.0 + 70.0 * ((i * 11) % 256) / 256.0;
      scans.push_back(traffic.collect({x, y}, 1).front());
    }
  }

  /// A fresh locator snapshot over the shared compilation — what a
  /// production republish installs.
  std::shared_ptr<const core::Locator> make_locator() const {
    return std::make_shared<core::ProbabilisticLocator>(compiled);
  }

  core::Testbed testbed;
  wiscan::LocationMap map;
  wiscan::Collection collection;
  traindb::TrainingDatabase db;
  std::shared_ptr<const core::CompiledDatabase> compiled;
  std::vector<radio::ScanRecord> scans;
};

const ServeCorpus& corpus() {
  static const ServeCorpus c;
  return c;
}

serve::LocationServerConfig serve_config() {
  serve::LocationServerConfig config;
  config.sessions_per_site = 1 << 12;
  return config;
}

// The headline: scans/sec through on_scan as threads scale (the
// acceptance gate compares items_per_second at 1 vs 8 threads). Four
// sites; each thread owns a disjoint device population spread across
// them, so the measurement includes site routing, the epoch pin, the
// session lookup, and the full locate.
void BM_ServerOnScan(benchmark::State& state) {
  const ServeCorpus& c = corpus();
  static serve::LocationServer* server = nullptr;
  static serve::SiteId sites[4];
  if (state.thread_index() == 0) {
    server = new serve::LocationServer(serve_config());
    for (int s = 0; s < 4; ++s) {
      sites[s] = server->add_site("bench-" + std::to_string(s),
                                  c.make_locator());
    }
  }

  const auto base =
      static_cast<serve::DeviceId>(state.thread_index() + 1) << 32;
  std::size_t i = 0;
  for (auto _ : state) {
    const serve::SiteId site = sites[i % 4];
    const serve::DeviceId device = base | ((i % 16) + 1);
    benchmark::DoNotOptimize(
        server->on_scan(site, device, c.scans[i % c.scans.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());

  if (state.thread_index() == 0) {
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_ServerOnScan)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Apply(bench::wall_clock)->Unit(benchmark::kMicrosecond);

// Same traffic with hot swaps landing throughout: a dedicated swapper
// republishes every site as fast as the grace periods allow while the
// scan threads run. The delta against BM_ServerOnScan is the whole
// cost readers pay for hot-swappability.
void BM_ServerOnScan_SwapStorm(benchmark::State& state) {
  const ServeCorpus& c = corpus();
  static serve::LocationServer* server = nullptr;
  static serve::SiteId sites[4];
  static std::thread* swapper = nullptr;
  static std::atomic<bool> stop{false};
  static std::atomic<std::uint64_t> swaps{0};
  if (state.thread_index() == 0) {
    server = new serve::LocationServer(serve_config());
    for (int s = 0; s < 4; ++s) {
      sites[s] = server->add_site("storm-" + std::to_string(s),
                                  c.make_locator());
    }
    stop.store(false);
    swaps.store(0);
    swapper = new std::thread([&c] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const serve::SiteId site : sites) {
          server->swap_site(site, c.make_locator());
          swaps.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto base =
      static_cast<serve::DeviceId>(state.thread_index() + 1) << 32;
  std::size_t i = 0;
  for (auto _ : state) {
    const serve::SiteId site = sites[i % 4];
    const serve::DeviceId device = base | ((i % 16) + 1);
    benchmark::DoNotOptimize(
        server->on_scan(site, device, c.scans[i % c.scans.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());

  if (state.thread_index() == 0) {
    stop.store(true, std::memory_order_release);
    swapper->join();
    delete swapper;
    swapper = nullptr;
    state.counters["swaps"] = static_cast<double>(swaps.load());
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_ServerOnScan_SwapStorm)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Apply(bench::wall_clock)->Unit(benchmark::kMicrosecond);

// One full hot swap: grace period (idle here), snapshot allocation,
// pointer publication, retire, reclaim. Locator construction is
// excluded (prebuilt pool of snapshots) — this is the swap machinery
// itself.
void BM_SwapSite(benchmark::State& state) {
  const ServeCorpus& c = corpus();
  serve::LocationServer server(serve_config());
  const serve::SiteId site = server.add_site("swap", c.make_locator());
  std::vector<std::shared_ptr<const core::Locator>> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(c.make_locator());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.swap_site(site, pool[i % pool.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwapSite)
    ->Apply(bench::wall_clock)->Unit(benchmark::kNanosecond);

// The wait-free reader pin by itself: one CAS to claim a slot, one
// store to release it. This is the entire synchronization cost a scan
// pays for hot-swappability.
void BM_EpochPin(benchmark::State& state) {
  static serve::EpochDomain domain(64);
  for (auto _ : state) {
    serve::EpochDomain::ReadGuard guard(domain);
    benchmark::DoNotOptimize(&guard);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochPin)
    ->Threads(1)->Threads(4)->Threads(8)
    ->Apply(bench::wall_clock)->Unit(benchmark::kNanosecond);

// Lock-free session lookup on a warm table (the steady-state path —
// creation happens once per device lifetime).
void BM_SessionLookup(benchmark::State& state) {
  static serve::SessionTable* table = nullptr;
  static core::LocationServiceConfig config;
  if (state.thread_index() == 0) {
    table = new serve::SessionTable(1 << 12);
    for (serve::DeviceId d = 1; d <= 1024; ++d) {
      table->find_or_create(d, config);
    }
  }
  serve::DeviceId d = static_cast<serve::DeviceId>(
      state.thread_index() * 131 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->find_or_create((d % 1024) + 1, config));
    ++d;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete table;
    table = nullptr;
  }
}
BENCHMARK(BM_SessionLookup)
    ->Threads(1)->Threads(4)
    ->Apply(bench::wall_clock)->Unit(benchmark::kNanosecond);

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_serve")

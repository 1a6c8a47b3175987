#pragma once

// Shared epilogue for the perf benches: after google-benchmark runs,
// dump the process metrics snapshot (locate latency, ingest counters,
// pool gauges) as JSON to <bench>.metrics.json in the working
// directory, so perf CI can archive and sanity-check observability
// output alongside the benchmark JSON itself.

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "base/metrics.hpp"

namespace loctk::bench {

/// The build type of *this* library/bench TU, recorded into the
/// benchmark JSON context as "loctk_build_type". google-benchmark's
/// own "library_build_type" describes how the system libbenchmark was
/// compiled — not our code — which is how debug-built numbers once
/// slipped into a committed BENCH file unnoticed. CI gates on this
/// key: committed BENCH_*.json must say "release".
inline const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// Wall-clock timing plus 5 repetitions for one benchmark, applied as
/// `BENCHMARK(BM_X)->Apply(loctk::bench::wall_clock)`. Rate counters
/// otherwise divide by main-thread CPU time, which undercounts any
/// work handed to a pool; the repetitions let the committed JSON carry
/// a median and a CV instead of one sample.
inline void wall_clock(benchmark::internal::Benchmark* b) {
  b->UseRealTime()->Repetitions(5);
}

inline void write_metrics_snapshot(const std::string& bench_name) {
  const metrics::MetricsSnapshot snap =
      metrics::MetricsRegistry::global().snapshot();
  const std::string path = bench_name + ".metrics.json";
  std::ofstream os(path, std::ios::binary);
  snap.write_json(os);
  os << "\n";
  std::fprintf(stderr,
               "metrics snapshot (%zu counters, %zu gauges, "
               "%zu histograms) -> %s\n",
               snap.counters.size(), snap.gauges.size(),
               snap.histograms.size(), path.c_str());
}

}  // namespace loctk::bench

/// BENCHMARK_MAIN() with the build-type context stamp and the snapshot
/// epilogue appended. Also stamps "hardware_concurrency": the stock
/// "num_cpus" field has been observed reporting the package count on
/// some container runtimes, and a thread-scaling trajectory recorded
/// on a 1-vCPU host looks like a scaling bug unless the reader can see
/// how many threads the host could actually run.
#define LOCTK_BENCHMARK_MAIN_WITH_METRICS(bench_name)              \
  int main(int argc, char** argv) {                                \
    ::benchmark::Initialize(&argc, argv);                          \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {    \
      return 1;                                                    \
    }                                                              \
    ::benchmark::AddCustomContext("loctk_build_type",              \
                                  ::loctk::bench::build_type());   \
    ::benchmark::AddCustomContext(                                 \
        "hardware_concurrency",                                    \
        std::to_string(std::thread::hardware_concurrency()));      \
    ::benchmark::RunSpecifiedBenchmarks();                         \
    ::benchmark::Shutdown();                                       \
    ::loctk::bench::write_metrics_snapshot(bench_name);            \
    return 0;                                                      \
  }

// TBL-DB — the paper's §4.3 claims about training databases:
// "they are compressed, which makes them easier to move and transmit
// over a network, and they can be loaded into memory more quickly
// than reading multiple wi-scan files line by line."
//
// This bench builds the paper survey (12 points x 4 APs x 90 scans),
// prints the size table (raw wi-scan text vs .lar archive vs .ltdb
// stats-only vs .ltdb with samples), then uses google-benchmark to
// time wi-scan re-parsing vs database decoding.

#include <cstdio>
#include <sstream>

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "traindb/codec.hpp"
#include "traindb/generator.hpp"
#include "wiscan/format.hpp"
#include "wiscan/survey.hpp"

using namespace loctk;

namespace {

struct Corpus {
  wiscan::Collection collection;
  wiscan::LocationMap map;
  std::string raw_text;         // concatenated wi-scan files
  std::string archive_bytes;    // .lar container
  std::string db_stats_bytes;   // .ltdb without samples
  std::string db_samples_bytes; // .ltdb with samples
};

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus out;
    core::Testbed testbed(radio::make_paper_house());
    out.map = core::make_training_grid(
        testbed.environment().footprint(), bench::kGridSpacingFt);
    radio::Scanner scanner = testbed.make_scanner(4242);
    wiscan::SurveyConfig cfg;
    cfg.scans_per_location = bench::kTrainScans;
    wiscan::SurveyCampaign campaign(scanner, cfg);
    out.collection = campaign.run(out.map);

    wiscan::Archive archive;
    for (const auto& f : out.collection.files) {
      const std::string text = wiscan::encode_wiscan(f);
      out.raw_text += text;
      archive.add(wiscan::sanitize_location_name(f.location) + ".wiscan",
                  text);
    }
    std::ostringstream ar_bytes;
    archive.write(ar_bytes);
    out.archive_bytes = ar_bytes.str();

    traindb::GeneratorConfig stats_only;
    out.db_stats_bytes = traindb::encode_database(
        traindb::generate_database(out.collection, out.map, stats_only));
    traindb::GeneratorConfig with_samples;
    with_samples.keep_samples = true;
    out.db_samples_bytes = traindb::encode_database(
        traindb::generate_database(out.collection, out.map, with_samples));
    return out;
  }();
  return c;
}

void BM_ParseWiscanCollection(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    // Re-parse every file from its text form (the paper's "reading
    // multiple wi-scan files line by line").
    std::size_t entries = 0;
    for (const auto& f : c.collection.files) {
      const wiscan::WiScanFile parsed =
          wiscan::decode_wiscan(wiscan::encode_wiscan(f), f.location);
      entries += parsed.size();
    }
    benchmark::DoNotOptimize(entries);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.raw_text.size()));
}
BENCHMARK(BM_ParseWiscanCollection);

void BM_GenerateDatabaseFromCollection(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traindb::generate_database(c.collection, c.map));
  }
}
BENCHMARK(BM_GenerateDatabaseFromCollection);

void BM_DecodeDatabaseStatsOnly(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::decode_database(c.db_stats_bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.db_stats_bytes.size()));
}
BENCHMARK(BM_DecodeDatabaseStatsOnly);

void BM_DecodeDatabaseWithSamples(benchmark::State& state) {
  const Corpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::decode_database(c.db_samples_bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(c.db_samples_bytes.size()));
}
BENCHMARK(BM_DecodeDatabaseWithSamples);

void BM_EncodeDatabaseWithSamples(benchmark::State& state) {
  const Corpus& c = corpus();
  const traindb::TrainingDatabase db =
      traindb::decode_database(c.db_samples_bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::encode_database(db));
  }
}
BENCHMARK(BM_EncodeDatabaseWithSamples);

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("TBL-DB: training database size & load (paper 4.3)");
  const Corpus& c = corpus();
  const auto pct = [&](std::size_t bytes) {
    return 100.0 * static_cast<double>(bytes) /
           static_cast<double>(c.raw_text.size());
  };
  std::printf("survey: %zu locations x %d scans, %zu wi-scan rows\n",
              c.collection.files.size(), bench::kTrainScans,
              c.collection.total_entries());
  std::printf("  %-34s %10s %10s\n", "representation", "bytes", "% of raw");
  std::printf("  %-34s %10zu %9.1f%%\n", "raw wi-scan text",
              c.raw_text.size(), 100.0);
  std::printf("  %-34s %10zu %9.1f%%\n", ".lar archive (container)",
              c.archive_bytes.size(), pct(c.archive_bytes.size()));
  std::printf("  %-34s %10zu %9.1f%%\n", ".ltdb training db (stats only)",
              c.db_stats_bytes.size(), pct(c.db_stats_bytes.size()));
  std::printf("  %-34s %10zu %9.1f%%\n", ".ltdb training db (with samples)",
              c.db_samples_bytes.size(), pct(c.db_samples_bytes.size()));
  std::printf("\nShape targets: stats-only db well under 10%% of raw; the\n"
              "with-samples db still several times smaller than raw; decode\n"
              "much faster than re-parsing (timings below).\n");
  bench::print_rule();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

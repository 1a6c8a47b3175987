// PERF — the ingest pipeline: seed istream parsing vs the interning
// buffer parser, end-to-end training-database generation on the
// default pool and on 1-, 2- and 4-thread pools (a 1-thread pool is the
// serial form), training-database load paths, and the served cold
// start of a 1020-AP campus.
//
// Workload: a synthetic survey corpus written to a temp directory —
// 64 locations x 150 scan passes x ~8 APs per pass (~75k rows,
// ~4.5 MB of wi-scan text) plus the matching location map and `.ltdb`
// encodings — and, for the BM_ColdStart_Campus and generate-only
// BM_Generate_Campus rows, a surveyed campus (240 rooms, 10 passes
// each). The "seed" BMs reproduce the growth seed's
// getline + istringstream parser, std::map-grouped aggregation, and
// ostringstream double-copy file slurp exactly as shipped, so the
// JSON trajectory keeps an honest baseline as the reference paths
// improve. Every entry is timed on the wall clock (pool runs burn CPU
// off the main thread) and repeated 5 times; BENCH_ingest.json next to
// the repo root records the checked-in run's aggregates, recorded with
// the repetitions interleaved across the run (see docs/ALGORITHMS.md
// "Ingest pipeline" for methodology).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_metrics.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/compiled_db.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "radio/campus.hpp"
#include "radio/scanner.hpp"
#include "stats/running_stats.hpp"
#include "traindb/codec.hpp"
#include "traindb/generator.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/format.hpp"
#include "wiscan/location_map.hpp"
#include "wiscan/scan_buffer.hpp"
#include "wiscan/survey.hpp"

using namespace loctk;

namespace {

namespace fs = std::filesystem;

constexpr int kLocations = 64;
constexpr int kScansPerLocation = 150;
constexpr int kApsPerScan = 8;

// Deterministic pseudo-RSSI so the corpus is identical across runs
// without an RNG.
double synth_rssi(int loc, int t, int a) {
  return -35.0 -
         static_cast<double>((loc * 7 + t * 13 + a * 37) % 55) - 0.5;
}

struct IngestCorpus {
  IngestCorpus() {
    dir = fs::temp_directory_path() / "loctk_perf_ingest";
    fs::remove_all(dir);
    fs::create_directories(dir / "scans");

    std::string map_text = "# location-map v1\n";
    for (int loc = 0; loc < kLocations; ++loc) {
      const std::string name = "room-" + std::to_string(loc);
      // Write each survey file through the toolkit's own writer so the
      // corpus rows match what real capture sessions produce.
      wiscan::WiScanFile file;
      file.location = name;
      for (int t = 0; t < kScansPerLocation; ++t) {
        for (int a = 0; a < kApsPerScan; ++a) {
          wiscan::WiScanEntry e;
          e.timestamp_s = static_cast<double>(t);
          e.bssid = "00:17:ab:00:00:0" + std::to_string(a);
          e.ssid = "loctk";
          e.channel = 1 + a % 11;
          e.rssi_dbm = synth_rssi(loc, t, a);
          file.add(e);
        }
      }
      const std::string text = wiscan::encode_wiscan(file);
      corpus_bytes += text.size();
      merged_text += text;
      std::ofstream(dir / "scans" / (name + ".wiscan")) << text;
      map_text += name + " " + std::to_string(10 * (loc % 8)) + ".0 " +
                  std::to_string(10 * (loc / 8)) + ".0\n";
    }
    map_file = dir / "site.locmap";
    std::ofstream(map_file) << map_text;
    map = wiscan::LocationMap::read(map_file);

    ltdb_stats = dir / "stats.ltdb";
    traindb::write_database(
        ltdb_stats, traindb::generate_database_from_path(
                        dir / "scans", map_file, {}));
    traindb::GeneratorConfig samples_cfg;
    samples_cfg.keep_samples = true;
    ltdb_samples = dir / "samples.ltdb";
    traindb::write_database(
        ltdb_samples, traindb::generate_database_from_path(
                          dir / "scans", map_file, samples_cfg));
  }

  fs::path dir;
  fs::path map_file;
  fs::path ltdb_stats;
  fs::path ltdb_samples;
  wiscan::LocationMap map;
  std::string merged_text;  // every file concatenated, for MB/s BMs
  std::size_t corpus_bytes = 0;
};

const IngestCorpus& corpus() {
  static const IngestCorpus c;
  return c;
}

// --- seed replicas ---------------------------------------------------
// The growth seed's ingest path, verbatim: getline + istringstream
// token loop, stod per number, one string-bearing entry per row,
// std::map grouping, incremental add_point universe insertion, and the
// ostringstream file slurp.

struct SeedWiScanFile {
  std::string location;
  std::vector<wiscan::WiScanEntry> entries;

  std::size_t scan_count() const {
    std::size_t count = 0;
    double last = -1.0;
    bool first = true;
    for (const wiscan::WiScanEntry& e : entries) {
      if (first || e.timestamp_s != last) {
        ++count;
        last = e.timestamp_s;
        first = false;
      }
    }
    return count;
  }
};

double seed_parse_double(const std::string& text) {
  std::size_t used = 0;
  const double v = std::stod(text, &used);
  if (used != text.size()) {
    throw wiscan::FormatError("seed: trailing junk in '" + text + "'");
  }
  return v;
}

SeedWiScanFile seed_read_wiscan(std::istream& is,
                                const std::string& fallback) {
  SeedWiScanFile file;
  file.location = fallback;
  std::string line;
  double last_time = 0.0;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first_nonspace = line.find_first_not_of(" \t");
    if (first_nonspace == std::string::npos) continue;
    if (line[first_nonspace] == '#') {
      static constexpr std::string_view kLocTag = "location:";
      const auto pos = line.find(kLocTag);
      if (pos != std::string::npos) {
        std::string loc = line.substr(pos + kLocTag.size());
        const auto begin = loc.find_first_not_of(" \t");
        if (begin != std::string::npos) {
          const auto end = loc.find_last_not_of(" \t");
          file.location = loc.substr(begin, end - begin + 1);
        }
      }
      continue;
    }
    wiscan::WiScanEntry entry;
    entry.timestamp_s = last_time;
    bool have_bssid = false;
    bool have_rssi = false;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      const auto eq = token.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw wiscan::FormatError("seed: line " + std::to_string(line_no) +
                                  ": expected key=value");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "time") {
        entry.timestamp_s = seed_parse_double(value);
      } else if (key == "bssid") {
        entry.bssid = value;
        have_bssid = true;
      } else if (key == "ssid") {
        entry.ssid = value;
      } else if (key == "channel") {
        entry.channel = static_cast<int>(seed_parse_double(value));
      } else if (key == "rssi") {
        entry.rssi_dbm = seed_parse_double(value);
        have_rssi = true;
      }
    }
    if (!have_bssid || !have_rssi) {
      throw wiscan::FormatError("seed: line " + std::to_string(line_no) +
                                ": missing bssid/rssi");
    }
    last_time = entry.timestamp_s;
    file.entries.push_back(std::move(entry));
  }
  return file;
}

std::vector<SeedWiScanFile> seed_load_collection(const fs::path& source) {
  std::vector<SeedWiScanFile> files;
  for (const auto& entry : fs::recursive_directory_iterator(source)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".wiscan") continue;
    std::ifstream is(entry.path());
    files.push_back(seed_read_wiscan(
        is, wiscan::sanitize_location_name(entry.path().stem().string())));
  }
  std::sort(files.begin(), files.end(),
            [](const SeedWiScanFile& a, const SeedWiScanFile& b) {
              return a.location < b.location;
            });
  return files;
}

traindb::TrainingPoint seed_build_training_point(
    const SeedWiScanFile& file, geom::Vec2 position,
    const traindb::GeneratorConfig& config) {
  traindb::TrainingPoint point;
  point.location = file.location;
  point.position = position;
  const std::size_t scans = file.scan_count();
  std::map<std::string, std::vector<double>> by_bssid;
  for (const wiscan::WiScanEntry& e : file.entries) {
    by_bssid[e.bssid].push_back(e.rssi_dbm);
  }
  for (auto& [bssid, readings] : by_bssid) {
    if (readings.size() < config.min_samples_per_ap) continue;
    stats::RunningStats rs;
    for (const double r : readings) rs.add(r);
    traindb::ApStatistics ap;
    ap.bssid = bssid;
    ap.mean_dbm = rs.mean();
    ap.stddev_db = rs.stddev();
    ap.sample_count = static_cast<std::uint32_t>(readings.size());
    ap.scan_count = static_cast<std::uint32_t>(scans);
    ap.min_dbm = rs.min();
    ap.max_dbm = rs.max();
    point.per_ap.push_back(std::move(ap));
  }
  return point;
}

traindb::TrainingDatabase seed_generate_from_path(
    const fs::path& source, const fs::path& map_file,
    const traindb::GeneratorConfig& config) {
  // The seed entry point re-read the location map per call, like
  // generate_database_from_path still does.
  const wiscan::LocationMap map = wiscan::LocationMap::read(map_file);
  const std::vector<SeedWiScanFile> files = seed_load_collection(source);
  traindb::TrainingDatabase db;
  db.set_site_name(config.site_name);
  for (const SeedWiScanFile& f : files) {
    const auto position = map.find(f.location);
    if (!position) continue;
    db.add_point(seed_build_training_point(f, *position, config));
  }
  return db;
}

// --- parse throughput ------------------------------------------------

void BM_ParseWiScan_SeedIstream(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    std::istringstream is(c.merged_text);
    benchmark::DoNotOptimize(seed_read_wiscan(is, "merged"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.merged_text.size()));
}
BENCHMARK(BM_ParseWiScan_SeedIstream)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_ParseWiScan_Interned(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wiscan::parse_wiscan_buffer(c.merged_text, "merged"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.merged_text.size()));
}
BENCHMARK(BM_ParseWiScan_Interned)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

// --- collection load -------------------------------------------------

void BM_LoadCollection_SeedIstream(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed_load_collection(c.dir / "scans"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.corpus_bytes));
}
BENCHMARK(BM_LoadCollection_SeedIstream)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_LoadCollection_Interned(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wiscan::load_collection(c.dir / "scans"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.corpus_bytes));
}
BENCHMARK(BM_LoadCollection_Interned)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

// The same load on a pool of range(0) threads; /1 is the serial form.
void BM_LoadCollection_InternedPool(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  concurrency::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wiscan::load_collection(c.dir / "scans", &pool));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.corpus_bytes));
}
BENCHMARK(BM_LoadCollection_InternedPool)
    ->Apply(bench::wall_clock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- end-to-end generator -------------------------------------------

void BM_GeneratorE2E_SeedIstream(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seed_generate_from_path(c.dir / "scans", c.map_file, {}));
  }
  state.counters["corpus_mb"] =
      static_cast<double>(c.corpus_bytes) / (1024.0 * 1024.0);
}
BENCHMARK(BM_GeneratorE2E_SeedIstream)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_GeneratorE2E_Collection(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traindb::generate_database_from_path(c.dir / "scans", c.map_file));
  }
}
BENCHMARK(BM_GeneratorE2E_Collection)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_GeneratorE2E_CollectionPool(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  concurrency::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::generate_database_from_path(
        c.dir / "scans", c.map_file, {}, nullptr, &pool));
  }
}
BENCHMARK(BM_GeneratorE2E_CollectionPool)
    ->Apply(bench::wall_clock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_CompileCollection_Direct(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  const wiscan::Collection collection =
      wiscan::load_collection(c.dir / "scans");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CompiledDatabase::compile_owned(
        traindb::generate_database(collection, c.map)));
  }
}
BENCHMARK(BM_CompileCollection_Direct)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

// --- training-database load -----------------------------------------

void BM_CodecLoad_SeedSlurp(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    // The seed's read path: ifstream -> ostringstream double copy,
    // then decode from the copied string.
    std::ifstream is(c.ltdb_samples, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string bytes = buffer.str();
    benchmark::DoNotOptimize(traindb::decode_database(bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fs::file_size(c.ltdb_samples)));
}
BENCHMARK(BM_CodecLoad_SeedSlurp)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_CodecLoad_ReadFileBytes(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::read_database(c.ltdb_samples));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fs::file_size(c.ltdb_samples)));
}
BENCHMARK(BM_CodecLoad_ReadFileBytes)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

// A served load from a `.ltdb`: decode, then compile the database
// borrowed (TwoStep; the caller keeps it alive) or owned (Direct;
// `compile_owned` moves it into the compilation).
void BM_ServeLoad_TwoStep(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    const traindb::TrainingDatabase db =
        traindb::read_database(c.ltdb_stats);
    benchmark::DoNotOptimize(core::CompiledDatabase(db));
  }
}
BENCHMARK(BM_ServeLoad_TwoStep)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_ServeLoad_Direct(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CompiledDatabase::compile_owned(
        traindb::read_database(c.ltdb_stats)));
  }
}
BENCHMARK(BM_ServeLoad_Direct)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_ProbeDatabase(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::probe_database(c.ltdb_samples));
  }
}
BENCHMARK(BM_ProbeDatabase)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMicrosecond);

// --- served cold start -------------------------------------------------
// What a server pays to bring one campus site up from its survey
// files: the scanbench `campus_fleet` set-up minus the location map
// and locator build. Load and generate run on the default pool, or on
// a 1-thread pool in the /1 row; the campus-sized compile fans its row
// fill out on the default pool in both. 2 buildings x 3 floors x 40 rooms, 10 scan passes
// per room (~130k rows, 240 files) — the paper's Training Database
// Generator at the ROADMAP's corpus scale.
struct CampusSurvey {
  CampusSurvey() {
    dir = fs::temp_directory_path() / "loctk_perf_ingest_campus";
    fs::remove_all(dir);
    const std::unique_ptr<radio::Campus> campus = radio::make_campus();
    for (std::size_t b = 0; b < campus->building_count(); ++b) {
      const std::vector<geom::Vec2> rooms = campus->room_centers(b);
      for (std::size_t f = 0; f < campus->floors_per_building(); ++f) {
        const std::string tag =
            "b" + std::to_string(b) + "f" + std::to_string(f) + "-r";
        wiscan::LocationMap floor_map;
        for (std::size_t r = 0; r < rooms.size(); ++r) {
          floor_map.add(tag + std::to_string(r), rooms[r]);
          map.add(tag + std::to_string(r), rooms[r]);
        }
        const radio::CampusFloorView view(*campus, b, f);
        radio::Scanner scanner(view, radio::ChannelConfig{},
                               9001 + campus->flat_floor(b, f));
        wiscan::SurveyConfig cfg;
        cfg.scans_per_location = 10;
        wiscan::SurveyCampaign(scanner, cfg)
            .run_to_directory(floor_map, dir);
      }
    }
  }

  fs::path dir;
  wiscan::LocationMap map;
};

const CampusSurvey& campus_survey() {
  static const CampusSurvey survey;
  return survey;
}

traindb::TrainingDatabase campus_cold_start(concurrency::ThreadPool* pool) {
  const CampusSurvey& survey = campus_survey();
  traindb::GeneratorConfig config;
  config.site_name = "campus";
  return traindb::generate_database(
      wiscan::load_collection(survey.dir, pool), survey.map, config,
      nullptr, pool);
}

void BM_ColdStart_Campus(benchmark::State& state) {
  campus_survey();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CompiledDatabase::compile_owned(campus_cold_start(nullptr)));
  }
}
BENCHMARK(BM_ColdStart_Campus)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_ColdStart_CampusPool(benchmark::State& state) {
  campus_survey();
  concurrency::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CompiledDatabase::compile_owned(campus_cold_start(&pool)));
  }
}
BENCHMARK(BM_ColdStart_CampusPool)
    ->Apply(bench::wall_clock)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// The generator alone over the campus collection, loaded once: one
// task per location on the default pool, or on a pool of range(0)
// threads (/1 is the serial form).
const wiscan::Collection& campus_collection() {
  static const wiscan::Collection collection =
      wiscan::load_collection(campus_survey().dir);
  return collection;
}

void BM_Generate_Campus(benchmark::State& state) {
  const wiscan::Collection& collection = campus_collection();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traindb::generate_database(collection, campus_survey().map));
  }
}
BENCHMARK(BM_Generate_Campus)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

void BM_Generate_CampusPool(benchmark::State& state) {
  const wiscan::Collection& collection = campus_collection();
  concurrency::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traindb::generate_database(
        collection, campus_survey().map, {}, nullptr, &pool));
  }
}
BENCHMARK(BM_Generate_CampusPool)
    ->Apply(bench::wall_clock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- serve: the ingested database answering queries ------------------
// Closes the pipeline the rest of this file feeds: every surveyed
// room's own rows, re-read as an observation, located against the
// generated database. Also the bench's source of locate.* metrics for
// the snapshot below.
void BM_ServeLocate_Batch(benchmark::State& state) {
  const IngestCorpus& c = corpus();
  const traindb::TrainingDatabase db = traindb::read_database(c.ltdb_stats);
  const core::ProbabilisticLocator locator(db);
  const wiscan::Collection collection =
      wiscan::load_collection(c.dir / "scans");
  std::vector<core::Observation> batch;
  batch.reserve(collection.files.size());
  for (const wiscan::WiScanFile& f : collection.files) {
    batch.push_back(core::Observation::from_entries(f));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate_batch(batch));
  }
  state.counters["obs"] = static_cast<double>(batch.size());
}
BENCHMARK(BM_ServeLocate_Batch)
    ->Apply(bench::wall_clock)
    ->Unit(benchmark::kMillisecond);

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_ingest")

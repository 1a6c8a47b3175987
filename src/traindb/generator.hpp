#pragma once

/// \file generator.hpp
/// The Training Database Generator: the paper's §4.3 component.
///
/// Inputs: a wi-scan collection (directory, archive, or in-memory)
/// plus a location map. Output: a `TrainingDatabase` whose rows carry
/// the per-<training point, AP> mean and standard deviation of §5.1.
/// Locations present in only one of the two inputs are reported in
/// `GeneratorReport` rather than silently dropped. Every entry point
/// runs one core: `build_training_point` over each file of a loaded
/// `Collection`, then one `TrainingDatabase::from_points`. The path
/// form is `load_collection` + `generate_database`. Generation is
/// embarrassingly parallel across locations, so it runs one task per
/// location on a `ThreadPool` (the default pool unless the caller
/// passes its own).

#include <filesystem>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "concurrency/thread_pool.hpp"
#include "traindb/database.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/location_map.hpp"

namespace loctk::traindb {

/// Generator knobs.
struct GeneratorConfig {
  /// Keep every raw reading (needed by histogram locators; costs
  /// space — the TBL-DB bench quantifies it).
  bool keep_samples = false;
  /// Drop an <AP, point> pair heard fewer than this many times; rare
  /// sightings produce garbage sigma estimates.
  std::uint32_t min_samples_per_ap = 3;
  /// Site label stored in the database.
  std::string site_name = "unnamed-site";
  /// When set, `generate_database_from_path` skips wi-scan files that
  /// fail to read or parse — recording a structured diagnostic in
  /// `GeneratorReport::quarantined` — instead of aborting the batch.
  /// The surviving files produce output byte-identical to a clean run
  /// without the bad files. Whole-batch failures (bad source path,
  /// unreadable archive, bad location map) still throw.
  bool quarantine_corrupt_files = false;
};

/// What happened during generation.
struct GeneratorReport {
  /// Wi-scan locations with no entry in the location map.
  std::vector<std::string> unmapped_locations;
  /// Location-map entries with no wi-scan file.
  std::vector<std::string> unsurveyed_locations;
  /// Corrupt/unreadable inputs skipped under
  /// `GeneratorConfig::quarantine_corrupt_files` (work-list order).
  std::vector<wiscan::QuarantinedFile> quarantined;
  /// <point, AP> pairs dropped by min_samples_per_ap.
  std::size_t dropped_pairs = 0;
  std::size_t points_built = 0;
};

/// Builds the database with one task per location on `pool`, or on
/// `concurrency::default_pool()` when `pool` is null; a 1-thread pool
/// is the serial form. Points are assembled in collection order
/// whatever the completion order, so the output is byte-identical for
/// every thread count.
TrainingDatabase generate_database(const wiscan::Collection& collection,
                                   const wiscan::LocationMap& map,
                                   const GeneratorConfig& config = {},
                                   GeneratorReport* report = nullptr,
                                   concurrency::ThreadPool* pool = nullptr);

/// End-to-end convenience mirroring the paper's CLI contract: a
/// string naming either a wi-scan directory or a `.lar` archive, plus
/// a location-map file. Exactly `load_collection` (which feeds the
/// `ingest.*` metrics) followed by `generate_database`, both on `pool`
/// (the default pool when null); the result is byte-identical for
/// every thread count.
TrainingDatabase generate_database_from_path(
    const std::filesystem::path& collection_source,
    const std::filesystem::path& location_map_file,
    const GeneratorConfig& config = {}, GeneratorReport* report = nullptr,
    concurrency::ThreadPool* pool = nullptr);

/// Structured-error form of `generate_database_from_path`: instead of
/// unwinding, whole-batch failures come back as a `loctk::Error` —
/// kIo (unreadable source), kParse (malformed wi-scan / location-map
/// text), kCorrupt (bad archive), kDegenerate (an empty database: no
/// usable surveyed+mapped location at all). Per-file failures follow
/// `GeneratorConfig::quarantine_corrupt_files` as usual.
Result<TrainingDatabase> try_generate_database_from_path(
    const std::filesystem::path& collection_source,
    const std::filesystem::path& location_map_file,
    const GeneratorConfig& config = {}, GeneratorReport* report = nullptr,
    concurrency::ThreadPool* pool = nullptr);

/// Aggregates one wi-scan file into one training point (exposed for
/// tests). `position` is the surveyed world position. Readings are
/// grouped by counting-sorting the rows on their BSSID id, so each
/// AP's Welford pass sees its readings in capture order; APs come out
/// in ascending BSSID order.
TrainingPoint build_training_point(const wiscan::WiScanFile& file,
                                   geom::Vec2 position,
                                   const GeneratorConfig& config,
                                   std::size_t* dropped_pairs = nullptr);

}  // namespace loctk::traindb

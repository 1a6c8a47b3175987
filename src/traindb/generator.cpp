#include "traindb/generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"
#include "stats/running_stats.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/format.hpp"
#include "wiscan/scan_buffer.hpp"

namespace loctk::traindb {

namespace {

metrics::Counter& generate_files_counter() {
  static metrics::Counter& c =
      metrics::counter("traindb.generate.files_parsed");
  return c;
}
metrics::Counter& generate_quarantined_counter() {
  static metrics::Counter& c =
      metrics::counter("traindb.generate.files_quarantined");
  return c;
}
metrics::Counter& generate_points_counter() {
  static metrics::Counter& c =
      metrics::counter("traindb.generate.points_built");
  return c;
}
metrics::HistogramMetric& generate_seconds_histogram() {
  static metrics::HistogramMetric& h =
      metrics::histogram("traindb.generate.seconds");
  return h;
}

}  // namespace

TrainingPoint build_training_point(const wiscan::WiScanFile& file,
                                   geom::Vec2 position,
                                   const GeneratorConfig& config,
                                   std::size_t* dropped_pairs) {
  TrainingPoint point;
  point.location = file.location;
  point.position = position;

  const std::size_t scans = file.scan_count();
  const std::vector<std::string>& bssids = file.bssids();
  const std::vector<wiscan::WiScanRow>& rows = file.rows();

  // Counting sort of the readings by BSSID id: AP `id`'s readings land
  // in [starts[id], starts[id + 1]) in capture order, the order the
  // seed's std::map grouping accumulated them in.
  std::vector<std::size_t> starts(bssids.size() + 1, 0);
  for (const wiscan::WiScanRow& row : rows) ++starts[row.bssid + 1];
  for (std::size_t id = 0; id < bssids.size(); ++id) {
    starts[id + 1] += starts[id];
  }
  std::vector<double> readings(rows.size());
  std::vector<std::size_t> fill(starts.begin(), starts.end() - 1);
  for (const wiscan::WiScanRow& row : rows) {
    readings[fill[row.bssid]++] = row.rssi_dbm;
  }

  // APs in ascending BSSID order, as the seed's std::map visited them.
  std::vector<std::uint32_t> order(bssids.size());
  for (std::size_t id = 0; id < order.size(); ++id) {
    order[id] = static_cast<std::uint32_t>(id);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return bssids[a] < bssids[b];
            });

  point.per_ap.reserve(order.size());
  for (const std::uint32_t id : order) {
    const double* const first = readings.data() + starts[id];
    const double* const last = readings.data() + starts[id + 1];
    const auto group_size = static_cast<std::size_t>(last - first);
    if (group_size < config.min_samples_per_ap) {
      if (dropped_pairs) ++*dropped_pairs;
      continue;
    }
    stats::RunningStats rs;
    for (const double* r = first; r != last; ++r) rs.add(*r);

    ApStatistics ap;
    ap.bssid = bssids[id];
    ap.mean_dbm = rs.mean();
    ap.stddev_db = rs.stddev();
    ap.sample_count = static_cast<std::uint32_t>(group_size);
    ap.scan_count = static_cast<std::uint32_t>(scans);
    ap.min_dbm = rs.min();
    ap.max_dbm = rs.max();
    if (config.keep_samples) {
      ap.samples_centi_dbm.reserve(group_size);
      for (const double* r = first; r != last; ++r) {
        ap.samples_centi_dbm.push_back(
            static_cast<std::int32_t>(std::lround(*r * 100.0)));
      }
    }
    point.per_ap.push_back(std::move(ap));
  }
  return point;
}

namespace {

// Shared front half: resolve positions, record mismatches, and return
// the indices of collection files that have map entries.
std::vector<std::size_t> plan_points(const wiscan::Collection& collection,
                                     const wiscan::LocationMap& map,
                                     GeneratorReport* report) {
  std::vector<std::size_t> usable;
  for (std::size_t i = 0; i < collection.files.size(); ++i) {
    if (map.find(collection.files[i].location)) {
      usable.push_back(i);
    } else if (report) {
      report->unmapped_locations.push_back(collection.files[i].location);
    }
  }
  if (report) {
    for (const wiscan::NamedLocation& loc : map.locations()) {
      if (collection.find(loc.name) == nullptr) {
        report->unsurveyed_locations.push_back(loc.name);
      }
    }
  }
  return usable;
}

TrainingDatabase assemble(const GeneratorConfig& config,
                          std::vector<TrainingPoint> built,
                          std::size_t dropped, GeneratorReport* report) {
  TrainingDatabase db =
      TrainingDatabase::from_points(std::move(built), config.site_name);
  if (report) {
    report->dropped_pairs += dropped;
    report->points_built = db.size();
  }
  return db;
}

}  // namespace

TrainingDatabase generate_database(const wiscan::Collection& collection,
                                   const wiscan::LocationMap& map,
                                   const GeneratorConfig& config,
                                   GeneratorReport* report) {
  const std::vector<std::size_t> usable =
      plan_points(collection, map, report);
  std::vector<TrainingPoint> built;
  built.reserve(usable.size());
  std::size_t dropped = 0;
  for (const std::size_t i : usable) {
    const wiscan::WiScanFile& f = collection.files[i];
    built.push_back(
        build_training_point(f, *map.find(f.location), config, &dropped));
  }
  return assemble(config, std::move(built), dropped, report);
}

TrainingDatabase generate_database_parallel(
    const wiscan::Collection& collection, const wiscan::LocationMap& map,
    concurrency::ThreadPool& pool, const GeneratorConfig& config,
    GeneratorReport* report) {
  const std::vector<std::size_t> usable =
      plan_points(collection, map, report);

  // One slot per file: workers accumulate into their own indices and
  // the merge is a fixed left-to-right fold, so the assembled database
  // (and its serialized bytes) match the serial path exactly.
  std::vector<TrainingPoint> built(usable.size());
  std::vector<std::size_t> dropped_per(usable.size(), 0);
  concurrency::parallel_for(pool, 0, usable.size(), [&](std::size_t k) {
    const wiscan::WiScanFile& f = collection.files[usable[k]];
    built[k] = build_training_point(f, *map.find(f.location), config,
                                    &dropped_per[k]);
  });

  std::size_t dropped = 0;
  for (const std::size_t d : dropped_per) dropped += d;
  return assemble(config, std::move(built), dropped, report);
}

TrainingDatabase generate_database_from_path(
    const std::filesystem::path& collection_source,
    const std::filesystem::path& location_map_file,
    const GeneratorConfig& config, GeneratorReport* report,
    concurrency::ThreadPool* pool) {
  metrics::ScopedTimer timer(generate_seconds_histogram());
  wiscan::LoadReport load_report;
  const wiscan::Collection collection = wiscan::load_collection(
      collection_source, pool,
      config.quarantine_corrupt_files ? &load_report : nullptr);
  if (report) {
    for (wiscan::QuarantinedFile& q : load_report.quarantined) {
      report->quarantined.push_back(std::move(q));
    }
  }
  // Read after the collection, so a bad source is reported first.
  const wiscan::LocationMap map =
      wiscan::LocationMap::read(location_map_file);
  TrainingDatabase db =
      pool != nullptr
          ? generate_database_parallel(collection, map, *pool, config, report)
          : generate_database(collection, map, config, report);
  generate_files_counter().add(collection.files.size());
  generate_quarantined_counter().add(load_report.quarantined.size());
  generate_points_counter().add(db.size());
  return db;
}

Result<TrainingDatabase> try_generate_database_from_path(
    const std::filesystem::path& collection_source,
    const std::filesystem::path& location_map_file,
    const GeneratorConfig& config, GeneratorReport* report,
    concurrency::ThreadPool* pool) {
  try {
    TrainingDatabase db = generate_database_from_path(
        collection_source, location_map_file, config, report, pool);
    if (db.size() == 0) {
      return Error(ErrorCode::kDegenerate,
                   "generator: no surveyed location matched the map")
          .with_context("building database from '" +
                        collection_source.string() + "'");
    }
    return db;
  } catch (const wiscan::BufferError& e) {
    return Error(ErrorCode::kIo, e.what());
  } catch (const wiscan::ArchiveError& e) {
    return Error(ErrorCode::kCorrupt, e.what());
  } catch (const wiscan::LocationMapError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const wiscan::FormatError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const DatabaseError& e) {
    return Error(ErrorCode::kCorrupt, e.what());
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal, e.what());
  }
}

}  // namespace loctk::traindb

#include "traindb/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>
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

/// One collection file with a map entry, and where the map puts it.
struct PlannedPoint {
  std::size_t file;
  geom::Vec2 position;
};

// Resolves every file's position and records the mismatches both ways.
std::vector<PlannedPoint> plan_points(const wiscan::Collection& collection,
                                      const wiscan::LocationMap& map,
                                      GeneratorReport* report) {
  std::vector<PlannedPoint> planned;
  planned.reserve(collection.files.size());
  for (std::size_t i = 0; i < collection.files.size(); ++i) {
    if (const auto position = map.find(collection.files[i].location)) {
      planned.push_back({i, *position});
    } else if (report) {
      report->unmapped_locations.push_back(collection.files[i].location);
    }
  }
  if (report) {
    std::unordered_set<std::string_view> surveyed;
    surveyed.reserve(collection.files.size());
    for (const wiscan::WiScanFile& f : collection.files) {
      surveyed.insert(f.location);
    }
    for (const wiscan::NamedLocation& loc : map.locations()) {
      if (!surveyed.contains(loc.name)) {
        report->unsurveyed_locations.push_back(loc.name);
      }
    }
  }
  return planned;
}

}  // namespace

TrainingDatabase generate_database(const wiscan::Collection& collection,
                                   const wiscan::LocationMap& map,
                                   const GeneratorConfig& config,
                                   GeneratorReport* report,
                                   concurrency::ThreadPool* pool) {
  const std::vector<PlannedPoint> planned =
      plan_points(collection, map, report);

  // One task per location, each writing its own slot; the points are
  // assembled in collection order and the drop counts summed in that
  // order, so the database (and its encoded bytes) is the same for
  // every thread count.
  std::vector<TrainingPoint> built(planned.size());
  std::vector<std::size_t> dropped_per(planned.size(), 0);
  concurrency::parallel_for(
      pool != nullptr ? *pool : concurrency::default_pool(), 0,
      planned.size(), [&](std::size_t k) {
        built[k] = build_training_point(collection.files[planned[k].file],
                                        planned[k].position, config,
                                        &dropped_per[k]);
      });

  TrainingDatabase db =
      TrainingDatabase::from_points(std::move(built), config.site_name);
  if (report) {
    for (const std::size_t d : dropped_per) report->dropped_pairs += d;
    report->points_built = db.size();
  }
  return db;
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
      generate_database(collection, map, config, report, pool);
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

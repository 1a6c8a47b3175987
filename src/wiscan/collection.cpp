#include "wiscan/collection.hpp"

#include <algorithm>
#include <optional>

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"
#include "wiscan/scan_buffer.hpp"

namespace loctk::wiscan {

namespace {

metrics::Counter& files_loaded_counter() {
  static metrics::Counter& c = metrics::counter("ingest.files_loaded");
  return c;
}
metrics::Counter& files_quarantined_counter() {
  static metrics::Counter& c =
      metrics::counter("ingest.files_quarantined");
  return c;
}
metrics::Counter& bytes_read_counter() {
  static metrics::Counter& c = metrics::counter("ingest.bytes_read");
  return c;
}
metrics::HistogramMetric& load_seconds_histogram() {
  static metrics::HistogramMetric& h =
      metrics::histogram("ingest.load_collection.seconds");
  return h;
}
metrics::Gauge& bytes_per_s_gauge() {
  static metrics::Gauge& g = metrics::gauge("ingest.bytes_per_s");
  return g;
}

// Shared epilogue for both load paths: attributes this call's file and
// byte totals, and derives throughput from the caller's wall time (the
// duration histogram itself is fed by the caller's ScopedTimer).
void record_load(std::size_t attempted, std::size_t kept,
                 std::uint64_t bytes, double elapsed_s) {
  files_loaded_counter().add(kept);
  files_quarantined_counter().add(attempted - kept);
  bytes_read_counter().add(bytes);
  if (elapsed_s > 0.0) {
    bytes_per_s_gauge().set(static_cast<double>(bytes) / elapsed_s);
  }
}

}  // namespace

const WiScanFile* Collection::find(const std::string& location) const {
  const auto it = std::find_if(
      files.begin(), files.end(),
      [&](const WiScanFile& f) { return f.location == location; });
  return it == files.end() ? nullptr : &*it;
}

std::size_t Collection::total_entries() const {
  std::size_t n = 0;
  for (const WiScanFile& f : files) n += f.size();
  return n;
}

namespace {

// Work-list order is fixed before any parsing starts and ties in the
// final by-location sort are broken by work-list index, so serial and
// parallel loads produce identical collections.
void sort_collection(Collection& c) {
  std::stable_sort(c.files.begin(), c.files.end(),
                   [](const WiScanFile& a, const WiScanFile& b) {
                     return a.location < b.location;
                   });
}

bool has_wiscan_extension(const std::string& name) {
  static constexpr std::string_view kExt = ".wiscan";
  return name.size() > kExt.size() &&
         name.compare(name.size() - kExt.size(), kExt.size(), kExt) == 0;
}

// Parses `count` work items into index-aligned slots, chunked across
// `pool` (the default pool when null).
template <typename ParseItem>
std::vector<WiScanFile> parse_work_list(std::size_t count,
                                        concurrency::ThreadPool* pool,
                                        const ParseItem& parse_item) {
  std::vector<WiScanFile> parsed(count);
  concurrency::parallel_for(
      pool != nullptr ? *pool : concurrency::default_pool(), 0, count,
      [&](std::size_t i) { parsed[i] = parse_item(i); });
  return parsed;
}

// Quarantining variant: each slot either parses or records a
// structured error under its work-list index (so worker scheduling
// cannot reorder diagnostics); failed slots are dropped before the
// by-location sort, leaving exactly the collection a clean run over
// the surviving files would build.
template <typename TryParseItem, typename SourceName>
std::vector<WiScanFile> parse_work_list_quarantined(
    std::size_t count, concurrency::ThreadPool* pool,
    const TryParseItem& try_parse_item, const SourceName& source_name,
    LoadReport& report) {
  std::vector<std::optional<Error>> errors(count);
  std::vector<WiScanFile> parsed =
      parse_work_list(count, pool, [&](std::size_t i) {
        Result<WiScanFile> r = try_parse_item(i);
        if (r.ok()) return std::move(r).value();
        errors[i] = std::move(r).error();
        return WiScanFile{};
      });
  std::vector<WiScanFile> kept;
  kept.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (errors[i]) {
      report.quarantined.push_back(
          {source_name(i), std::move(*errors[i])});
    } else {
      kept.push_back(std::move(parsed[i]));
    }
  }
  report.files_loaded += kept.size();
  return kept;
}

}  // namespace

Collection load_collection(const Archive& archive,
                           concurrency::ThreadPool* pool,
                           LoadReport* report) {
  metrics::ScopedTimer timer(load_seconds_histogram());
  std::vector<const std::pair<const std::string, std::string>*> work;
  std::uint64_t total_bytes = 0;
  for (const auto& entry : archive.entries()) {
    if (has_wiscan_extension(entry.first)) {
      work.push_back(&entry);
      total_bytes += entry.second.size();
    }
  }
  const auto parse = [&](std::size_t i) {
    const auto& [name, bytes] = *work[i];
    return parse_wiscan_buffer(
        bytes, sanitize_location_name(std::filesystem::path(name)
                                          .stem()
                                          .string()));
  };
  Collection c;
  if (report != nullptr) {
    c.files = parse_work_list_quarantined(
        work.size(), pool,
        [&](std::size_t i) -> Result<WiScanFile> {
          try {
            return parse(i);
          } catch (const FormatError& e) {
            return Error(ErrorCode::kParse, e.what())
                .with_context("parsing archive entry '" + work[i]->first +
                              "'");
          }
        },
        [&](std::size_t i) { return work[i]->first; }, *report);
  } else {
    c.files = parse_work_list(work.size(), pool, parse);
  }
  sort_collection(c);
  record_load(work.size(), c.files.size(), total_bytes, timer.elapsed_s());
  return c;
}

Collection load_collection(const std::filesystem::path& source,
                           concurrency::ThreadPool* pool,
                           LoadReport* report) {
  if (std::filesystem::is_directory(source)) {
    metrics::ScopedTimer timer(load_seconds_histogram());
    std::vector<std::filesystem::path> work;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(source)) {
      if (!entry.is_regular_file()) continue;
      if (!has_wiscan_extension(entry.path().filename().string())) continue;
      work.push_back(entry.path());
    }
    // Directory iteration order is filesystem-dependent; sort so the
    // work list (and therefore the loaded collection) is stable.
    std::sort(work.begin(), work.end());

    // What each successful read returned, one slot per work item so
    // pool workers never share a counter; a failed read adds nothing.
    std::vector<std::uint64_t> read_bytes(work.size(), 0);
    const auto read_and_parse = [&](std::size_t i) {
      const std::string bytes = read_file_bytes(work[i]);
      read_bytes[i] = bytes.size();
      return parse_wiscan_buffer(
          bytes, sanitize_location_name(work[i].stem().string()));
    };
    Collection c;
    if (report != nullptr) {
      c.files = parse_work_list_quarantined(
          work.size(), pool,
          [&](std::size_t i) -> Result<WiScanFile> {
            try {
              return read_and_parse(i);
            } catch (const BufferError& e) {
              return Error(ErrorCode::kIo, e.what())
                  .with_context("reading '" + work[i].string() + "'");
            } catch (const FormatError& e) {
              return Error(ErrorCode::kParse, e.what())
                  .with_context("parsing '" + work[i].string() + "'");
            }
          },
          [&](std::size_t i) { return work[i].string(); }, *report);
    } else {
      c.files = parse_work_list(work.size(), pool, [&](std::size_t i) {
        try {
          return read_and_parse(i);
        } catch (const BufferError& e) {
          throw FormatError("load_collection: " + std::string(e.what()));
        }
      });
    }
    sort_collection(c);
    std::uint64_t bytes = 0;
    for (const std::uint64_t n : read_bytes) bytes += n;
    record_load(work.size(), c.files.size(), bytes, timer.elapsed_s());
    return c;
  }
  if (std::filesystem::is_regular_file(source) &&
      source.extension() == ".lar") {
    return load_collection(Archive::read(source), pool, report);
  }
  throw FormatError("load_collection: '" + source.string() +
                    "' is neither a directory nor a .lar archive");
}

}  // namespace loctk::wiscan

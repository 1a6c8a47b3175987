#pragma once

/// \file collection.hpp
/// Loading whole wi-scan collections.
///
/// The paper §4.3: the collection "is passed to the Training Database
/// Generator as a string representing either the name of a directory
/// containing the wi-scan files or a zip file containing the wi-scan
/// files", and the generator "must correctly deal with ... directory
/// structure and file format". We accept a directory tree (searched
/// recursively for `*.wiscan`) or a `.lar` archive, and label each
/// file by its `# location:` header or, failing that, its file stem.

#include <filesystem>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/format.hpp"
#include "wiscan/record.hpp"

namespace loctk::concurrency {
class ThreadPool;
}

namespace loctk::wiscan {

/// A loaded collection: one WiScanFile per survey location, sorted by
/// location name for deterministic downstream processing.
struct Collection {
  std::vector<WiScanFile> files;

  /// Pointer into `files` for `location`, or nullptr.
  const WiScanFile* find(const std::string& location) const;

  std::size_t total_entries() const;
};

/// One input skipped by a quarantining load: which source (file path
/// or archive entry name) and the structured reason.
struct QuarantinedFile {
  std::string source;
  Error error;
};

/// Outcome bookkeeping for a quarantining load.
struct LoadReport {
  /// Inputs skipped (work-list order: sorted paths / map entry order).
  std::vector<QuarantinedFile> quarantined;
  /// Inputs that parsed and made it into the collection.
  std::size_t files_loaded = 0;
};

/// Loads from a directory tree (recursive, `*.wiscan` files only) or
/// from a `.lar` archive file — dispatch on what `source` points at,
/// mirroring the paper's string-argument interface. Throws
/// FormatError / ArchiveError on malformed content, and FormatError
/// when `source` is neither a directory nor a `.lar` file.
///
/// Each file is read and parsed as its own task on `pool`, or on
/// `concurrency::default_pool()` when `pool` is null; a 1-thread pool
/// is the serial form, every file on the calling thread. The work
/// list is fixed up front (paths sorted lexicographically, archive
/// entries in map order) and every task writes into its own index
/// slot, so the loaded collection is byte-identical for every thread
/// count and completion order.
///
/// With `report`, per-file failures (unreadable file, malformed rows)
/// are *quarantined*: the bad file is skipped, a structured diagnostic
/// lands in `report->quarantined`, and the rest of the batch loads
/// deterministically — identical to a clean run over the surviving
/// files. Whole-batch failures (bad source path, unreadable archive)
/// still throw. Without `report`, the first failure throws as before.
Collection load_collection(const std::filesystem::path& source,
                           concurrency::ThreadPool* pool = nullptr,
                           LoadReport* report = nullptr);

/// Loads from an in-memory archive (entries whose names end in
/// `.wiscan`).
Collection load_collection(const Archive& archive,
                           concurrency::ThreadPool* pool = nullptr,
                           LoadReport* report = nullptr);

}  // namespace loctk::wiscan

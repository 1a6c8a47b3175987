#pragma once

/// \file archive.hpp
/// `.lar` — a minimal multi-file container ("loctk archive").
///
/// The paper's Training Database Generator accepts wi-scan collections
/// either as "the name of a directory containing the wi-scan files or
/// a zip file containing the wi-scan files" (§4.3). We stand in for
/// zip with this trivially-verifiable container: a magic header
/// followed by (path-length, path, payload-length, payload) entries.
/// It is a *container*, not a compressor — the compression claims of
/// the paper are carried by the training-database codec instead
/// (see `loctk/traindb`).
///
/// Layout (all integers little-endian u64):
///     "LAR1"            4 bytes magic
///     entry count       u64
///     per entry:
///         name length   u64
///         name bytes    (UTF-8, '/'-separated relative path)
///         data length   u64
///         data bytes

#include <filesystem>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace loctk::wiscan {

class ArchiveError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// In-memory archive: ordered map of relative path -> raw bytes.
class Archive {
 public:
  /// Adds or replaces an entry. Paths must be relative, non-empty,
  /// and contain no "." / ".." components (throws ArchiveError).
  void add(const std::string& path, std::string bytes);

  bool contains(const std::string& path) const;
  const std::string& bytes(const std::string& path) const;  // throws if absent
  std::size_t size() const { return entries_.size(); }

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  /// Serialization. The file overload reads the archive in one
  /// `read_file_bytes` and parses entries straight out of that buffer
  /// (one copy per entry, into the owning map); the istream overload
  /// is a compatibility adapter that drains the stream first.
  void write(std::ostream& os) const;
  void write(const std::filesystem::path& file) const;
  static Archive read(std::istream& is);
  static Archive read(const std::filesystem::path& file);
  static Archive read_bytes(std::string_view bytes);

  /// Packs every regular file under `dir` (recursively; paths stored
  /// relative to `dir`, '/'-separated).
  static Archive pack_directory(const std::filesystem::path& dir);

  /// Writes every entry as a file under `dir`, creating directories.
  void unpack_to(const std::filesystem::path& dir) const;

 private:
  static void validate_path(const std::string& path);
  std::map<std::string, std::string> entries_;
};

}  // namespace loctk::wiscan

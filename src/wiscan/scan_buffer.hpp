#pragma once

/// \file scan_buffer.hpp
/// Ingest substrate: whole-file reads and string_view parsers.
///
/// The seed toolkit read every wi-scan file through `std::getline` +
/// `istringstream` token loops — one stream construction and several
/// heap allocations per row. At survey scale (the paper's 28 files)
/// that is invisible; at campus scale it dominates every cold start.
/// This layer reads each file into memory with one `read()` and parses
/// by slicing `std::string_view`s: numbers through a fixed-decimal
/// fast path (`std::from_chars` otherwise), BSSIDs and SSIDs interned
/// once per file through a flat hash table, rows stored as 32-byte
/// id records. The istream entry points in format.hpp /
/// location_map.hpp / archive.hpp remain as thin adapters over these
/// parsers, so the text and binary formats are unchanged byte for
/// byte.

#include <cstddef>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "base/error.hpp"
#include "wiscan/location_map.hpp"
#include "wiscan/record.hpp"

namespace loctk::wiscan {

/// I/O failure while reading a file (open/stat/read). Callers
/// that promise their own error taxonomy (FormatError, ArchiveError,
/// CodecError) catch this and rethrow.
class BufferError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reads a whole file into one string: `fstat` for the size, then
/// `read()` straight into the string's buffer. Every file reader in
/// the toolkit goes through here, so it is also the fault injector's
/// veto and corruption point. Throws BufferError.
std::string read_file_bytes(const std::filesystem::path& path);

/// Parses a complete number (optional sign, decimal or scientific)
/// from `text` via `std::from_chars`; the whole token must be
/// consumed. Returns nullopt on malformed input instead of throwing
/// so parsers can attach line diagnostics.
std::optional<double> parse_number(std::string_view text);

/// Iterates the lines of a buffer without allocating: each call
/// yields the next line (terminator removed, trailing '\r' stripped),
/// or nullopt at end of input. Tracks a 1-based line number for
/// diagnostics.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  std::optional<std::string_view> next();
  std::size_t line_number() const { return line_no_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

/// Buffer-oriented wi-scan parser: same grammar, rules, and
/// diagnostics as `read_wiscan`. One key=value loop reads every row,
/// finding token and line ends eight bytes at a time and dispatching
/// keys on their first byte; the writer's `# rows:` header sizes the
/// row vector. Throws FormatError (declared in format.hpp) with line
/// numbers on malformed rows: a missing or empty `bssid`, a missing or
/// non-numeric `rssi`, a non-finite time or dBm, or a channel outside
/// `int`.
WiScanFile parse_wiscan_buffer(std::string_view text,
                               std::string_view fallback_location = {});

/// Buffer-oriented location-map parser. Unlike the seed's
/// `istringstream >> double` loop it rejects trailing garbage after
/// the two coordinates, and non-finite coordinates, with a line
/// diagnostic. Throws LocationMapError.
LocationMap parse_location_map_buffer(std::string_view text);

/// --- structured-error adapters ---------------------------------------
/// Taxonomy-speaking forms of the ingest entry points: I/O failures
/// come back as `loctk::Error` kIo and malformed text as kParse, so
/// batch loaders can quarantine one bad file and keep parsing.

Result<std::string> try_read_file_bytes(const std::filesystem::path& path);
Result<WiScanFile> try_parse_wiscan_buffer(
    std::string_view text, std::string_view fallback_location = {});
Result<LocationMap> try_parse_location_map_buffer(std::string_view text);

}  // namespace loctk::wiscan

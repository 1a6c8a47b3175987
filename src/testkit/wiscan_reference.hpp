#pragma once

/// \file wiscan_reference.hpp
/// The wi-scan row oracle for `wiscan::parse_wiscan_buffer`.
///
/// The shipped parser reads each row in one word-at-a-time key=value
/// loop (docs/ALGORITHMS.md, "Ingest pipeline"). This is the parser it
/// replaced, kept as readable executable documentation: lines split by
/// `LineScanner`, a fast path for the writer's canonical key order, and
/// a generic per-token loop that re-reads any other row, interning
/// through `WiScanFile::add`. The differential races the two on the
/// same text: same accept or reject, same diagnostic, equal files bit
/// for bit.
///
/// The old parser accepted two kinds of row the shipped one rejects: a
/// non-finite `time=` and a `channel=` outside `int`, whose conversion
/// was undefined. The reference stops at the first such row and reports
/// its line instead of converting it. It also strips only one trailing
/// CR from a comment line, so `# location: den \r\r` gives it the label
/// "den \r" where the shipped parser reads "den"; the differential
/// allows exactly that label difference.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "wiscan/record.hpp"

namespace loctk::testkit {

/// What the reference parser made of one wi-scan text.
struct ReferenceWiScanParse {
  /// The parsed file, or nullopt when the text was rejected.
  std::optional<wiscan::WiScanFile> file;
  /// The FormatError text of a rejected parse.
  std::string error;
  /// 1-based line of the first row with a non-finite time or a channel
  /// outside `int`, 0 when there is none. When set, `file` and `error`
  /// are empty: the shipped parser must reject exactly that line.
  std::size_t unchecked_line = 0;
};

ReferenceWiScanParse reference_parse_wiscan(
    std::string_view text, std::string_view fallback_location = {});

/// Races `parse_wiscan_buffer` against the reference on `text`.
/// Returns an empty string when they agree, else the first difference.
std::string wiscan_parse_mismatch(std::string_view text,
                                  std::string_view fallback_location = {});

}  // namespace loctk::testkit

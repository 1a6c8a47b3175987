#include "testkit/wiscan_reference.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "wiscan/format.hpp"
#include "wiscan/scan_buffer.hpp"

namespace loctk::testkit {

namespace {

using wiscan::FormatError;

// Thrown at the first row the old parser accepted but whose value it
// could not represent: a non-finite time or a channel outside int.
struct UncheckedRow {
  std::size_t line_no;
};

constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                             1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                             1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                             1e18, 1e19, 1e20, 1e21, 1e22};

// [+-]digits[.digits] with at most 15 digits, else nullopt.
std::optional<double> parse_fixed_decimal(std::string_view text) {
  std::size_t i = 0;
  const bool negative = !text.empty() && text.front() == '-';
  if (negative || (!text.empty() && text.front() == '+')) i = 1;

  std::uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = -1;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c >= '0' && c <= '9') {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(c - '0');
      ++digits;
      if (frac_digits >= 0) ++frac_digits;
    } else if (c == '.' && frac_digits < 0) {
      frac_digits = 0;
    } else {
      return std::nullopt;
    }
  }
  if (digits == 0 || digits > 15) return std::nullopt;
  const double magnitude =
      static_cast<double>(mantissa) / kPow10[frac_digits < 0 ? 0 : frac_digits];
  return negative ? -magnitude : magnitude;
}

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

bool is_token_space(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

struct TokenScanner {
  std::string_view line;
  std::size_t pos = 0;

  std::optional<std::string_view> next() {
    const std::size_t size = line.size();
    std::size_t begin = pos;
    while (begin < size && is_token_space(line[begin])) ++begin;
    if (begin >= size) {
      pos = size;
      return std::nullopt;
    }
    std::size_t end = begin;
    while (end < size && !is_token_space(line[end])) ++end;
    pos = end;
    return line.substr(begin, end - begin);
  }
};

double require_number(std::string_view text, const char* what,
                      std::size_t line_no) {
  const auto v = wiscan::parse_number(text);
  if (!v) {
    throw FormatError(std::string(what) + ": not a number: '" +
                      std::string(text) + "' (line " +
                      std::to_string(line_no) + ")");
  }
  return *v;
}

// The old parser's static_cast<int>, where it was defined.
int channel_of(double value, std::size_t line_no) {
  if (!(value > -2147483649.0 && value < 2147483648.0)) {
    throw UncheckedRow{line_no};
  }
  return static_cast<int>(value);
}

struct RowFields {
  std::string_view bssid;
  std::string_view ssid;
  double timestamp_s = 0.0;
  double rssi_dbm = 0.0;
  int channel = 0;
  bool has_time = false;
};

// The canonical row `time=T bssid=B [ssid=S] [channel=C] rssi=R`, keys
// in that order, single spaces; false (nothing committed) otherwise.
bool parse_canonical_row(std::string_view line, std::size_t line_no,
                         RowFields& row, std::string_view& cached_time_token,
                         double& cached_time_value) {
  std::size_t pos = 0;
  const std::size_t size = line.size();
  const auto take = [&](std::string_view key,
                        std::string_view& value) -> bool {
    if (!line.substr(pos).starts_with(key)) return false;
    const std::size_t vbegin = pos + key.size();
    std::size_t vend = vbegin;
    while (vend < size && line[vend] != ' ') {
      if (is_token_space(line[vend])) return false;
      ++vend;
    }
    if (vend == vbegin) return false;
    value = line.substr(vbegin, vend - vbegin);
    pos = vend < size ? vend + 1 : size;
    return true;
  };

  std::string_view value;
  if (take("time=", value)) {
    if (value == cached_time_token) {
      row.timestamp_s = cached_time_value;
    } else {
      const auto t = parse_fixed_decimal(value);
      if (!t) return false;
      row.timestamp_s = *t;
      cached_time_token = value;
      cached_time_value = *t;
    }
    row.has_time = true;
  }
  if (!take("bssid=", row.bssid)) return false;
  take("ssid=", row.ssid);
  if (take("channel=", value)) {
    const auto c = parse_fixed_decimal(value);
    if (!c) return false;
    row.channel = channel_of(*c, line_no);
  }
  if (!take("rssi=", value)) return false;
  const auto r = parse_fixed_decimal(value);
  if (!r) return false;
  row.rssi_dbm = *r;
  return pos >= size;
}

void add_row(wiscan::WiScanFile& file, double timestamp_s,
             std::string_view bssid, std::string_view ssid, int channel,
             double rssi_dbm) {
  file.add({timestamp_s, std::string(bssid), std::string(ssid), channel,
            rssi_dbm});
}

wiscan::WiScanFile parse(std::string_view text,
                         std::string_view fallback_location) {
  wiscan::WiScanFile file;
  file.location = fallback_location;
  wiscan::LineScanner lines(text);
  double last_time = 0.0;
  std::string_view cached_time_token;
  double cached_time_value = 0.0;
  while (const auto maybe_line = lines.next()) {
    const std::string_view line = *maybe_line;
    const std::size_t line_no = lines.line_number();

    if (line.empty()) continue;
    std::size_t first_nonspace = 0;
    if (line[0] == ' ' || line[0] == '\t') {
      first_nonspace = line.find_first_not_of(" \t");
      if (first_nonspace == std::string_view::npos) continue;
    }
    if (line[first_nonspace] == '#') {
      static constexpr std::string_view kLocTag = "location:";
      const auto tag = line.find(kLocTag);
      if (tag != std::string_view::npos) {
        const std::string_view loc = trim(line.substr(tag + kLocTag.size()));
        if (!loc.empty()) file.location = loc;
      }
      continue;
    }

    RowFields row;
    if (first_nonspace == 0 &&
        parse_canonical_row(line, line_no, row, cached_time_token,
                            cached_time_value)) {
      if (row.has_time) last_time = row.timestamp_s;
      add_row(file, last_time, row.bssid, row.ssid, row.channel, row.rssi_dbm);
      continue;
    }

    RowFields out;
    out.timestamp_s = last_time;
    bool have_bssid = false;
    bool have_rssi = false;
    TokenScanner tokens{line};
    while (const auto maybe_token = tokens.next()) {
      const std::string_view token = *maybe_token;
      if (token.starts_with("time=")) {
        const std::string_view value = token.substr(5);
        if (!value.empty() && value == cached_time_token) {
          out.timestamp_s = cached_time_value;
        } else {
          out.timestamp_s =
              require_number(value, "read_wiscan: time", line_no);
          if (!std::isfinite(out.timestamp_s)) throw UncheckedRow{line_no};
          cached_time_token = value;
          cached_time_value = out.timestamp_s;
        }
      } else if (token.starts_with("bssid=")) {
        out.bssid = token.substr(6);
        have_bssid = true;
      } else if (token.starts_with("ssid=")) {
        out.ssid = token.substr(5);
      } else if (token.starts_with("channel=")) {
        out.channel = channel_of(
            require_number(token.substr(8), "read_wiscan: channel", line_no),
            line_no);
      } else if (token.starts_with("rssi=")) {
        out.rssi_dbm =
            require_number(token.substr(5), "read_wiscan: rssi", line_no);
        if (!std::isfinite(out.rssi_dbm)) {
          throw FormatError("read_wiscan: rssi not finite: '" +
                            std::string(token.substr(5)) + "' (line " +
                            std::to_string(line_no) + ")");
        }
        have_rssi = true;
      } else {
        const auto eq = token.find('=');
        if (eq == std::string_view::npos || eq == 0) {
          throw FormatError("read_wiscan: line " + std::to_string(line_no) +
                            ": expected key=value, got '" +
                            std::string(token) + "'");
        }
      }
    }
    if (!have_bssid) {
      throw FormatError("read_wiscan: line " + std::to_string(line_no) +
                        ": missing bssid");
    }
    if (out.bssid.empty()) {
      throw FormatError("read_wiscan: line " + std::to_string(line_no) +
                        ": empty bssid");
    }
    if (!have_rssi) {
      throw FormatError("read_wiscan: line " + std::to_string(line_no) +
                        ": missing rssi");
    }
    last_time = out.timestamp_s;
    add_row(file, out.timestamp_s, out.bssid, out.ssid, out.channel,
            out.rssi_dbm);
  }
  return file;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Equal files with every double equal bit for bit (== alone would let
// -0.0 pass for 0.0).
bool identical(const wiscan::WiScanFile& a, const wiscan::WiScanFile& b) {
  if (!(a == b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const wiscan::WiScanRow& x = a.rows()[i];
    const wiscan::WiScanRow& y = b.rows()[i];
    if (!same_bits(x.timestamp_s, y.timestamp_s) ||
        !same_bits(x.rssi_dbm, y.rssi_dbm)) {
      return false;
    }
  }
  return true;
}

/// The one allowed label difference. The parser strips every trailing
/// CR of a `# location:` comment before trimming and the reference
/// strips one, so a reference label that still ends in CR is the
/// parser's label followed by spaces, tabs and CRs; when nothing else
/// is left, the parser keeps the label it had before that comment.
bool only_cr_label_differs(const wiscan::WiScanFile& got,
                           const wiscan::WiScanFile& want) {
  const std::string_view label = want.location;
  if (!label.ends_with('\r')) return false;
  const std::string_view kept = got.location;
  const bool label_ok =
      label.find_first_not_of(" \t\r") == std::string_view::npos ||
      (!kept.empty() && label.starts_with(kept) &&
       label.find_first_not_of(" \t\r", kept.size()) ==
           std::string_view::npos);
  if (!label_ok) return false;
  wiscan::WiScanFile relabeled = want;
  relabeled.location = got.location;
  return identical(got, relabeled);
}

}  // namespace

ReferenceWiScanParse reference_parse_wiscan(
    std::string_view text, std::string_view fallback_location) {
  ReferenceWiScanParse out;
  try {
    out.file = parse(text, fallback_location);
  } catch (const FormatError& e) {
    out.error = e.what();
  } catch (const UncheckedRow& row) {
    out.unchecked_line = row.line_no;
  }
  return out;
}

std::string wiscan_parse_mismatch(std::string_view text,
                                  std::string_view fallback_location) {
  const ReferenceWiScanParse want =
      reference_parse_wiscan(text, fallback_location);
  std::optional<wiscan::WiScanFile> got;
  std::string got_error;
  try {
    got = wiscan::parse_wiscan_buffer(text, fallback_location);
  } catch (const FormatError& e) {
    got_error = e.what();
  }

  if (want.unchecked_line != 0) {
    const std::string at =
        "(line " + std::to_string(want.unchecked_line) + ")";
    const bool new_check = got_error.starts_with("read_wiscan: time not finite") ||
                           got_error.starts_with("read_wiscan: channel out of range");
    if (got || !new_check || !got_error.ends_with(at)) {
      return "line " + std::to_string(want.unchecked_line) +
             " holds a non-finite time or an out-of-range channel; the "
             "parser " +
             (got ? std::string("accepted it") : "said: " + got_error);
    }
    return {};
  }
  if (want.file && !got) return "reference accepts, parser rejects: " + got_error;
  if (!want.file && got) return "parser accepts, reference rejects: " + want.error;
  if (!want.file) {
    return got_error == want.error ? std::string()
                                   : "diagnostics differ: parser '" +
                                         got_error + "', reference '" +
                                         want.error + "'";
  }
  return identical(*got, *want.file) || only_cr_label_differs(*got, *want.file)
             ? std::string()
             : "parsed files differ";
}

}  // namespace loctk::testkit

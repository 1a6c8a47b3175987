#include "wiscan/scan_buffer.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "base/fault_injector.hpp"
#include "base/string_hash.hpp"
#include "wiscan/format.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace loctk::wiscan {

namespace {

// Closes a descriptor on every exit path of read_file_bytes.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

// read() until `size` bytes have landed in `out` or the file ends
// early; returns the byte count read.
std::size_t read_fully(int fd, char* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

std::string read_file_bytes(const std::filesystem::path& path) {
  if (FaultInjector::instance().should_fail_io()) {
    throw BufferError("read_file_bytes: injected I/O failure on " +
                      path.string());
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw BufferError("read_file_bytes: cannot open " + path.string());
  }
  const FdCloser closer{fd};
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw BufferError("read_file_bytes: not a regular file: " +
                      path.string());
  }
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  if (read_fully(fd, bytes.data(), bytes.size()) != bytes.size()) {
    throw BufferError("read_file_bytes: short read on " + path.string());
  }
  FaultInjector::instance().corrupt(bytes);
  return bytes;
}

namespace {

// Exact powers of ten up to 10^22 — every entry is an integer below
// 2^74 whose binary expansion fits a double exactly.
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                             1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                             1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                             1e18, 1e19, 1e20, 1e21, 1e22};

// Fast path for plain fixed-notation decimals ([+-]digits[.digits]),
// which is every number the wi-scan and location-map formats emit.
// With <= 15 significant digits the mantissa fits 2^53 exactly and
// the scale is an exact power of ten, so one division yields the
// correctly-rounded value — bit-identical to from_chars/stod.
// Returns nullopt when the token needs the general-purpose parser
// (exponents, long mantissas, inf/nan, or malformed input).
std::optional<double> parse_fixed_decimal(std::string_view text) {
  std::size_t i = 0;
  const bool negative = !text.empty() && text.front() == '-';
  if (negative || (!text.empty() && text.front() == '+')) i = 1;

  std::uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = -1;  // >= 0 once the decimal point is seen
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (c >= '0' && c <= '9') {
      mantissa = mantissa * 10 + static_cast<std::uint64_t>(c - '0');
      ++digits;
      if (frac_digits >= 0) ++frac_digits;
    } else if (c == '.' && frac_digits < 0) {
      frac_digits = 0;
    } else {
      return std::nullopt;  // exponent or garbage: general parser
    }
  }
  if (digits == 0 || digits > 15) return std::nullopt;
  const double magnitude =
      static_cast<double>(mantissa) /
      kPow10[frac_digits < 0 ? 0 : frac_digits];
  return negative ? -magnitude : magnitude;
}

}  // namespace

std::optional<double> parse_number(std::string_view text) {
  if (const auto fast = parse_fixed_decimal(text)) return fast;
  // std::stod tolerated an explicit leading '+'; from_chars does not.
  if (text.size() > 1 && text.front() == '+' && text[1] != '+' &&
      text[1] != '-') {
    text.remove_prefix(1);
  }
  if (text.empty()) return std::nullopt;
#if defined(__cpp_lib_to_chars)
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return v;
#else
  // Pre-<charconv>-FP toolchains: strtod on a NUL-terminated copy.
  // Tokens are short (one number), so the copy stays in SSO storage.
  const std::string copy(text);
  char* end = nullptr;
  const double v = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return v;
#endif
}

std::optional<std::string_view> LineScanner::next() {
  if (pos_ >= text_.size()) return std::nullopt;
  ++line_no_;
  const std::size_t nl = text_.find('\n', pos_);
  std::string_view line = nl == std::string_view::npos
                              ? text_.substr(pos_)
                              : text_.substr(pos_, nl - pos_);
  pos_ = nl == std::string_view::npos ? text_.size() : nl + 1;
  // Files written on Windows (the paper's toolkit environment).
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

namespace {

std::string_view trim(std::string_view s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return {};
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

// istream >> whitespace, as a branch-cheap predicate. A multi-char
// find_first_of over the set costs ~4x as much as this per byte,
// and the tokenizer visits every byte of every row.
inline bool is_token_space(char c) {
  return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r';
}

// Yields whitespace-separated tokens of one line, istream >> style.
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
  const auto v = parse_number(text);
  if (!v) {
    throw FormatError(std::string(what) + ": not a number: '" +
                      std::string(text) + "' (line " +
                      std::to_string(line_no) + ")");
  }
  return *v;
}

// One row's fields; the strings are views into its line.
struct RowFields {
  std::string_view bssid;
  std::string_view ssid;
  double timestamp_s = 0.0;
  double rssi_dbm = 0.0;
  int channel = 0;
  bool has_time = false;
};

// Fast path for the canonical row shape the toolkit's own writer
// emits: `time=T bssid=B [ssid=S] [channel=C] rssi=R`, keys in that
// order. Matching the expected key directly skips the per-token
// dispatch chain of the generic loop. Returns false — with no fields
// committed — whenever the row deviates (reordered or unknown keys,
// extra whitespace, malformed numbers, empty values), and the generic
// loop re-parses the whole line so diagnostics are identical
// either way.
bool parse_canonical_row(std::string_view line, RowFields& row,
                         std::string_view& cached_time_token,
                         double& cached_time_value) {
  std::size_t pos = 0;
  const std::size_t size = line.size();
  // Matches `<key>=<value>` at `pos` followed by one space or the end
  // of the line; yields the value and advances past the separator.
  const auto take = [&](std::string_view key,
                        std::string_view& value) -> bool {
    if (!line.substr(pos).starts_with(key)) return false;
    const std::size_t vbegin = pos + key.size();
    std::size_t vend = vbegin;
    while (vend < size && line[vend] != ' ') {
      if (is_token_space(line[vend])) return false;  // generic loop
      ++vend;
    }
    if (vend == vbegin) return false;  // empty value: let it diagnose
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
  take("ssid=", row.ssid);  // optional
  if (take("channel=", value)) {
    const auto c = parse_fixed_decimal(value);
    if (!c) return false;
    row.channel = static_cast<int>(*c);
  }
  if (!take("rssi=", value)) return false;
  const auto r = parse_fixed_decimal(value);
  if (!r) return false;
  row.rssi_dbm = *r;
  return pos >= size;  // anything left over: generic loop
}

}  // namespace

// Builds the WiScanFile of one parse. BSSIDs and SSIDs are interned
// through flat open-addressed tables keyed by `bssid_hash`; each table
// first tries the id that followed the previous row's string last
// time, because scan passes list their APs in a stable order, so that
// one compare usually replaces the hash probe.
class WiScanInterner {
 public:
  explicit WiScanInterner(WiScanFile& file)
      : file_(file), bssids_(file.bssids_), ssids_(file.ssids_) {}

  void reserve(std::size_t rows) { file_.rows_.reserve(rows); }

  void add(double timestamp_s, std::string_view bssid, std::string_view ssid,
           int channel, double rssi_dbm) {
    file_.rows_.push_back({timestamp_s, rssi_dbm, bssids_.intern(bssid),
                           ssids_.intern(ssid), channel});
  }

 private:
  class Table {
   public:
    explicit Table(std::vector<std::string>& strings) : strings_(strings) {}

    std::uint32_t intern(std::string_view key) {
      std::uint32_t id = kNone;
      if (last_ != kNone) {
        const std::uint32_t guess = next_[last_];
        if (guess != kNone && strings_[guess] == key) id = guess;
      }
      if (id == kNone) {
        id = find_or_insert(key);
        if (last_ != kNone) next_[last_] = id;
      }
      last_ = id;
      return id;
    }

   private:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    struct Cell {
      std::uint32_t tag = 0;
      std::uint32_t id = kNone;
    };

    std::uint32_t find_or_insert(std::string_view key) {
      // At most half full, so every probe ends at an empty cell.
      if (2 * (strings_.size() + 1) > cells_.size()) grow();
      const std::uint64_t h = bssid_hash(key);
      const auto tag = static_cast<std::uint32_t>(h >> 32);
      const std::size_t mask = cells_.size() - 1;
      std::size_t cell = h & mask;
      for (; cells_[cell].id != kNone; cell = (cell + 1) & mask) {
        if (cells_[cell].tag == tag && strings_[cells_[cell].id] == key) {
          return cells_[cell].id;
        }
      }
      const auto id = static_cast<std::uint32_t>(strings_.size());
      cells_[cell] = {tag, id};
      strings_.emplace_back(key);
      hashes_.push_back(h);
      next_.push_back(kNone);
      return id;
    }

    void grow() {
      std::vector<Cell> cells(std::max<std::size_t>(64, 2 * cells_.size()));
      const std::size_t mask = cells.size() - 1;
      for (std::size_t id = 0; id < hashes_.size(); ++id) {
        std::size_t cell = hashes_[id] & mask;
        while (cells[cell].id != kNone) cell = (cell + 1) & mask;
        cells[cell] = {static_cast<std::uint32_t>(hashes_[id] >> 32),
                       static_cast<std::uint32_t>(id)};
      }
      cells_ = std::move(cells);
    }

    std::vector<std::string>& strings_;  // the file's table
    std::vector<Cell> cells_;
    std::vector<std::uint64_t> hashes_;  // per id, for regrowth
    std::vector<std::uint32_t> next_;    // per id: the id that followed it
    std::uint32_t last_ = kNone;
  };

  WiScanFile& file_;
  Table bssids_;
  Table ssids_;
};

namespace {

// Upper bound on the rows of `text`, for one up-front reserve: one
// row per line at most, and no row is shorter than `bssid=a rssi=1`
// (14 bytes, 15 with its newline), so a file of blank lines cannot
// reserve more rows than a file of the shortest rows would hold.
// memchr, not std::count: the libc scanner runs at memory bandwidth.
std::size_t row_upper_bound(std::string_view text) {
  constexpr std::size_t kShortestRow = 14;
  std::size_t lines = 1;
  const char* cursor = text.data();
  const char* const text_end = cursor + text.size();
  while (cursor < text_end) {
    const void* nl = std::memchr(
        cursor, '\n', static_cast<std::size_t>(text_end - cursor));
    if (nl == nullptr) break;
    ++lines;
    cursor = static_cast<const char*>(nl) + 1;
  }
  return std::min(lines, text.size() / kShortestRow + 1);
}

}  // namespace

WiScanFile parse_wiscan_buffer(std::string_view text,
                               std::string_view fallback_location) {
  WiScanFile file;
  file.location = fallback_location;
  WiScanInterner rows(file);
  rows.reserve(row_upper_bound(text));
  LineScanner lines(text);
  double last_time = 0.0;
  // Every row of one scan pass carries the same time= token; remember
  // the last token's bytes so repeats skip the numeric parse.
  std::string_view cached_time_token;
  double cached_time_value = 0.0;
  while (const auto maybe_line = lines.next()) {
    const std::string_view line = *maybe_line;
    const std::size_t line_no = lines.line_number();

    if (line.empty()) continue;
    // Data rows start at column zero; only indented or blank-ish lines
    // pay for the leading-whitespace scan.
    std::size_t first_nonspace = 0;
    if (line[0] == ' ' || line[0] == '\t') {
      first_nonspace = line.find_first_not_of(" \t");
      if (first_nonspace == std::string_view::npos) continue;
    }
    if (line[first_nonspace] == '#') {
      // Comments may carry the location header.
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
        parse_canonical_row(line, row, cached_time_token,
                            cached_time_value)) {
      if (row.has_time) last_time = row.timestamp_s;
      rows.add(last_time, row.bssid, row.ssid, row.channel, row.rssi_dbm);
      continue;
    }

    // Rows without a time= key inherit the previous row's timestamp.
    RowFields out;
    out.timestamp_s = last_time;

    bool have_bssid = false;
    bool have_rssi = false;

    TokenScanner tokens{line};
    while (const auto maybe_token = tokens.next()) {
      const std::string_view token = *maybe_token;
      // Known keys are matched by literal prefix (one fixed-length
      // memcmp each, ordered by on-disk position) instead of locating
      // '=' and slicing first — the '=' scan only runs for the rare
      // unknown-key token.
      if (token.starts_with("time=")) {
        const std::string_view value = token.substr(5);
        if (!value.empty() && value == cached_time_token) {
          out.timestamp_s = cached_time_value;
        } else {
          out.timestamp_s =
              require_number(value, "read_wiscan: time", line_no);
          cached_time_token = value;
          cached_time_value = out.timestamp_s;
        }
      } else if (token.starts_with("bssid=")) {
        out.bssid = token.substr(6);
        have_bssid = true;
      } else if (token.starts_with("ssid=")) {
        out.ssid = token.substr(5);
      } else if (token.starts_with("channel=")) {
        out.channel = static_cast<int>(require_number(
            token.substr(8), "read_wiscan: channel", line_no));
      } else if (token.starts_with("rssi=")) {
        out.rssi_dbm =
            require_number(token.substr(5), "read_wiscan: rssi", line_no);
        // parse_number accepts "inf"/"nan" spellings (from_chars does);
        // a non-finite dBm would flow into Welford accumulation and
        // Gaussian sigma math downstream, so reject it at the row.
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
        // Unknown keys: ignored deliberately (forward compatibility).
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
    rows.add(out.timestamp_s, out.bssid, out.ssid, out.channel, out.rssi_dbm);
  }
  return file;
}

namespace {

// Reads a possibly-quoted location name starting at `pos`; advances
// pos past it. Mirrors the istream-era grammar exactly.
std::string read_map_name(std::string_view line, std::size_t& pos,
                          std::size_t line_no) {
  if (line[pos] != '"') {
    const auto end = line.find_first_of(" \t", pos);
    std::string name(
        line.substr(pos, end == std::string_view::npos ? end : end - pos));
    pos = end == std::string_view::npos ? line.size() : end;
    return name;
  }
  ++pos;  // opening quote
  std::string name;
  while (pos < line.size()) {
    const char c = line[pos++];
    if (c == '\\' && pos < line.size()) {
      name.push_back(line[pos++]);
    } else if (c == '"') {
      return name;
    } else {
      name.push_back(c);
    }
  }
  throw LocationMapError("location-map: line " + std::to_string(line_no) +
                         ": unterminated quoted name");
}

}  // namespace

LocationMap parse_location_map_buffer(std::string_view text) {
  LocationMap map;
  LineScanner lines(text);
  while (const auto maybe_line = lines.next()) {
    const std::string_view line = *maybe_line;
    const std::size_t line_no = lines.line_number();
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos || line[start] == '#') continue;

    std::size_t pos = start;
    const std::string name = read_map_name(line, pos, line_no);
    if (name.empty()) {
      throw LocationMapError("location-map: line " + std::to_string(line_no) +
                             ": empty name");
    }
    TokenScanner coords{line, pos};
    double xy[2] = {0.0, 0.0};
    for (double& v : xy) {
      const auto token = coords.next();
      const auto value = token ? parse_number(*token) : std::nullopt;
      if (!value) {
        throw LocationMapError("location-map: line " +
                               std::to_string(line_no) +
                               ": expected two coordinates after name");
      }
      v = *value;
    }
    if (const auto extra = coords.next()) {
      throw LocationMapError("location-map: line " + std::to_string(line_no) +
                             ": trailing garbage after coordinates: '" +
                             std::string(*extra) + "'");
    }
    map.set(name, {xy[0], xy[1]});
  }
  return map;
}

Result<std::string> try_read_file_bytes(const std::filesystem::path& path) {
  try {
    return read_file_bytes(path);
  } catch (const BufferError& e) {
    return Error(ErrorCode::kIo, e.what());
  }
}

Result<WiScanFile> try_parse_wiscan_buffer(std::string_view text,
                                           std::string_view fallback_location) {
  try {
    return parse_wiscan_buffer(text, fallback_location);
  } catch (const FormatError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal, e.what());
  }
}

Result<LocationMap> try_parse_location_map_buffer(std::string_view text) {
  try {
    return parse_location_map_buffer(text);
  } catch (const LocationMapError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal, e.what());
  }
}

}  // namespace loctk::wiscan

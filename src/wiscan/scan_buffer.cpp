#include "wiscan/scan_buffer.hpp"

#include <algorithm>
#include <bit>
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

// ' ' or \t \n \v \f \r (0x09-0x0D): the bytes that end a token.
inline bool is_delimiter(char c) {
  const auto byte = static_cast<unsigned char>(c);
  return byte <= ' ' && ((0x100003E00ULL >> byte) & 1) != 0;
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

// --- eight bytes at a time ------------------------------------------

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

// Sets the high bit of every byte of `word` below `n` (n <= 0x80) and
// clears the rest. Each byte's low seven bits are added without a
// carry into the next byte, so every mark is exact.
constexpr std::uint64_t bytes_below(std::uint64_t word, std::uint64_t n) {
  return ~(((word & ~kHighBits) + kOnes * (0x80 - n)) | word) & kHighBits;
}

template <typename Word = std::uint64_t>
inline Word load(const char* p) {
  Word word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

// Index, in memory order, of the first marked byte.
inline std::size_t first_marked(std::uint64_t marks) {
  return static_cast<std::size_t>(std::endian::native == std::endian::little
                                      ? std::countr_zero(marks) / 8
                                      : std::countl_zero(marks) / 8);
}

// The first delimiter at or after `p`, or `end`. The word test finds
// any byte up to ' '; in text that byte is the delimiter.
const char* token_end(const char* p, const char* end) {
  while (end - p >= 8) {
    const std::uint64_t marks = bytes_below(load(p), ' ' + 1);
    if (marks == 0) {
      p += 8;
      continue;
    }
    p += first_marked(marks);
    if (is_delimiter(*p)) return p;
    ++p;  // another control byte, part of the token
  }
  while (p < end && !is_delimiter(*p)) ++p;
  return p;
}

// Byte equality, a word at a time with an overlapping last word: three
// compares for a MAC, two for a short SSID.
inline bool same_key(std::string_view a, std::string_view b) {
  const std::size_t n = a.size();
  const char* x = a.data();
  const char* y = b.data();
  if (n != b.size()) return false;
  if (n < 4) {
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] != y[i]) return false;
    }
    return true;
  }
  if (n < 8) {
    return load<std::uint32_t>(x) == load<std::uint32_t>(y) &&
           load<std::uint32_t>(x + n - 4) == load<std::uint32_t>(y + n - 4);
  }
  for (std::size_t i = 0; i + 8 < n; i += 8) {
    if (load(x + i) != load(y + i)) return false;
  }
  return load(x + n - 8) == load(y + n - 8);
}

[[noreturn, gnu::cold, gnu::noinline]] void throw_row_error(
    std::size_t line_no, const std::string& what) {
  throw FormatError("read_wiscan: line " + std::to_string(line_no) + ": " +
                    what);
}

[[noreturn, gnu::cold, gnu::noinline]] void throw_bad_value(
    const char* what, const char* begin, const char* end,
    std::size_t line_no) {
  throw FormatError(std::string("read_wiscan: ") + what + ": '" +
                    std::string(begin, end) + "' (line " +
                    std::to_string(line_no) + ")");
}

// Reads the number token at `value` into `out` (nullopt when it is not
// a number), exactly as parse_number would, and returns the token's
// end. A token of at most seven bytes is found in one 8-byte load, and
// an integer among them (every timestamp, channel and dBm reading a
// NIC reports) is converted from that word.
const char* number_token(const char* value, const char* end,
                         std::optional<double>& out) {
  if (std::endian::native == std::endian::little && end - value >= 8) {
    const std::uint64_t word = load(value);
    const std::uint64_t marks = bytes_below(word, ' ' + 1);
    const std::size_t len = marks == 0 ? 8 : first_marked(marks);
    const std::size_t sign = *value == '-' || *value == '+' ? 1 : 0;
    if (len < 8 && len > sign && is_delimiter(value[len])) {
      const std::size_t n = len - sign;
      const std::uint64_t lanes = ~std::uint64_t{0} >> (64 - 8 * n);
      const std::uint64_t digits = (word >> (8 * sign)) & lanes;
      if (((bytes_below(digits, '0') | ~bytes_below(digits, '9' + 1)) &
           lanes & kHighBits) == 0) {
        // Digit values, left-aligned so the unused bytes read as
        // leading zeros, folded into 2-, 4- and 8-digit lanes.
        std::uint64_t v = (digits - (kOnes * '0' & lanes)) << (64 - 8 * n);
        v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FFULL;
        v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFFULL;
        v = (v * 10000 + (v >> 32)) & 0xFFFFFFFFULL;
        out = *value == '-' ? -static_cast<double>(v) : static_cast<double>(v);
        return value + len;
      }
    }
  }
  const char* stop = token_end(value, end);
  out = parse_number({value, static_cast<std::size_t>(stop - value)});
  return stop;
}

// number_token, or the "`what`: not a number" diagnostic.
inline const char* read_number(const char* value, const char* end,
                               const char* what, std::size_t line_no,
                               double& out) {
  std::optional<double> v;
  const char* stop = number_token(value, end, v);
  if (!v) throw_bad_value(what, value, stop, line_no);
  out = *v;
  return stop;
}

template <std::size_t N>
inline bool key_at(const char* p, const char* end, const char (&key)[N]) {
  return static_cast<std::size_t>(end - p) >= N - 1 &&
         std::memcmp(p, key, N - 1) == 0;
}

}  // namespace

// Builds the WiScanFile of one parse. BSSIDs and SSIDs are interned as
// views of their first occurrence in the text (copied out by `finish`)
// through flat open-addressed tables keyed by `bssid_hash`. Each table
// first tries the id that followed the previous row's string last
// time, because scan passes list their APs in a stable order, so that
// one inline compare usually replaces the hash probe.
class WiScanInterner {
 public:
  explicit WiScanInterner(WiScanFile& file) : file_(file) {}

  bool empty() const { return file_.rows_.empty(); }

  void reserve(std::size_t rows) { file_.rows_.reserve(rows); }

  void add(double timestamp_s, std::string_view bssid, std::string_view ssid,
           int channel, double rssi_dbm) {
    file_.rows_.push_back({timestamp_s, rssi_dbm, bssids_.intern(bssid),
                           ssids_.intern(ssid), channel});
  }

  void finish() {
    bssids_.copy_to(file_.bssids_);
    ssids_.copy_to(file_.ssids_);
  }

 private:
  class Table {
   public:
    std::uint32_t intern(std::string_view key) {
      if (last_ != kNone) {
        const std::uint32_t guess = next_[last_];
        if (guess != kNone && same_key(keys_[guess], key)) {
          return last_ = guess;
        }
      }
      const std::uint32_t id = find_or_insert(key);
      if (last_ != kNone) next_[last_] = id;
      return last_ = id;
    }

    void copy_to(std::vector<std::string>& strings) const {
      strings.assign(keys_.begin(), keys_.end());
    }

   private:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    struct Cell {
      std::uint32_t tag = 0;
      std::uint32_t id = kNone;
    };

    std::uint32_t find_or_insert(std::string_view key) {
      // At most half full, so every probe ends at an empty cell.
      if (2 * (keys_.size() + 1) > cells_.size()) grow();
      const std::uint64_t h = bssid_hash(key);
      const auto tag = static_cast<std::uint32_t>(h >> 32);
      const std::size_t mask = cells_.size() - 1;
      std::size_t cell = h & mask;
      for (; cells_[cell].id != kNone; cell = (cell + 1) & mask) {
        if (cells_[cell].tag == tag && same_key(keys_[cells_[cell].id], key)) {
          return cells_[cell].id;
        }
      }
      const auto id = static_cast<std::uint32_t>(keys_.size());
      cells_[cell] = {tag, id};
      keys_.push_back(key);
      next_.push_back(kNone);
      return id;
    }

    // Doubles the table (64 cells at first), rehashing every key.
    void grow() {
      std::vector<Cell> cells(std::max<std::size_t>(64, 2 * cells_.size()));
      const std::size_t mask = cells.size() - 1;
      for (std::size_t id = 0; id < keys_.size(); ++id) {
        const std::uint64_t h = bssid_hash(keys_[id]);
        std::size_t cell = h & mask;
        while (cells[cell].id != kNone) cell = (cell + 1) & mask;
        cells[cell] = {static_cast<std::uint32_t>(h >> 32),
                       static_cast<std::uint32_t>(id)};
      }
      cells_ = std::move(cells);
    }

    std::vector<std::string_view> keys_;  // per id, in first-heard order
    std::vector<Cell> cells_;
    std::vector<std::uint32_t> next_;  // per id: the id that followed it
    std::uint32_t last_ = kNone;
  };

  WiScanFile& file_;
  Table bssids_;
  Table ssids_;
};

WiScanFile parse_wiscan_buffer(std::string_view text,
                               std::string_view fallback_location) {
  WiScanFile file;
  file.location = fallback_location;
  WiScanInterner rows(file);
  const char* p = text.data();
  const char* const end = p + text.size();
  std::size_t line_no = 0;
  double last_time = 0.0;
  // Every row of one scan pass carries the same time= token; remember
  // the last token's bytes so repeats skip the numeric parse.
  std::string_view cached_time_token;
  double cached_time_value = 0.0;
  while (p < end) {
    ++line_no;
    const char* q = p;
    while (q < end && (*q == ' ' || *q == '\t')) ++q;
    // Blank (spaces and tabs before an LF or CRLF) and comment lines.
    const bool blank = q == end || *q == '\n' ||
                       (*q == '\r' && (q + 1 == end || q[1] == '\n'));
    if (blank || *q == '#') {
      const void* nl = std::memchr(q, '\n', static_cast<std::size_t>(end - q));
      const char* line_end = nl == nullptr ? end : static_cast<const char*>(nl);
      p = nl == nullptr ? end : line_end + 1;
      if (blank) continue;
      std::string_view line(q, static_cast<std::size_t>(line_end - q));
      // Files written on Windows (the paper's toolkit environment); a
      // file converted twice ends its lines in CR CR LF, and a CR left
      // in a label would match no location-map name.
      while (line.ends_with('\r')) line.remove_suffix(1);
      // Comments may carry the location header...
      static constexpr std::string_view kLocTag = "location:";
      const auto tag = line.find(kLocTag);
      if (tag != std::string_view::npos) {
        const std::string_view loc = trim(line.substr(tag + kLocTag.size()));
        if (!loc.empty()) file.location = loc;
      }
      // ...and the writer's row count, which sizes the row vector once.
      // No row is shorter than `bssid=a rssi=1` (14 bytes), which caps
      // what a lying header can reserve.
      static constexpr std::string_view kRowsTag = "# rows:";
      if (rows.empty() && line.starts_with(kRowsTag)) {
        const std::string_view count = trim(line.substr(kRowsTag.size()));
        std::size_t n = 0;
        const char* count_end = count.data() + count.size();
        const auto [ptr, ec] = std::from_chars(count.data(), count_end, n);
        if (ec == std::errc() && ptr == count_end) {
          rows.reserve(std::min(n, text.size() / 14 + 1));
        }
      }
      continue;
    }

    // A row of key=value tokens in any order, keys dispatched on their
    // first byte. No key holds a delimiter, so a value runs from its '='
    // to the token's end. A row without time= keeps the previous time.
    double timestamp_s = last_time;
    std::string_view bssid;
    std::string_view ssid;
    int channel = 0;
    double rssi_dbm = 0.0;
    bool have_bssid = false;
    bool have_rssi = false;
    const char* t = q;
    for (;;) {
      while (t < end && is_token_space(*t)) ++t;
      if (t == end || *t == '\n') break;
      const char* const token = t;
      switch (*token) {
        case 't': {
          if (!key_at(token, end, "time=")) break;
          const char* value = token + 5;
          const std::size_t n = cached_time_token.size();
          if (n != 0 && static_cast<std::size_t>(end - value) > n &&
              is_delimiter(value[n]) && same_key({value, n}, cached_time_token)) {
            timestamp_s = cached_time_value;
            t = value + n;
            continue;
          }
          t = read_number(value, end, "time: not a number", line_no,
                          timestamp_s);
          if (!std::isfinite(timestamp_s)) {
            throw_bad_value("time not finite", value, t, line_no);
          }
          cached_time_token = {value, static_cast<std::size_t>(t - value)};
          cached_time_value = timestamp_s;
          continue;
        }
        case 'b':
          if (!key_at(token, end, "bssid=")) break;
          t = token_end(token + 6, end);
          bssid = {token + 6, static_cast<std::size_t>(t - token - 6)};
          have_bssid = true;
          continue;
        case 's':
          if (!key_at(token, end, "ssid=")) break;
          t = token_end(token + 5, end);
          ssid = {token + 5, static_cast<std::size_t>(t - token - 5)};
          continue;
        case 'c': {
          if (!key_at(token, end, "channel=")) break;
          double c = 0.0;
          t = read_number(token + 8, end, "channel: not a number", line_no, c);
          // Truncation to int is defined strictly inside (INT_MIN - 1,
          // INT_MAX + 1); NaN fails both compares.
          if (!(c > -2147483649.0 && c < 2147483648.0)) {
            throw_bad_value("channel out of range", token + 8, t, line_no);
          }
          channel = static_cast<int>(c);
          continue;
        }
        case 'r':
          if (!key_at(token, end, "rssi=")) break;
          t = read_number(token + 5, end, "rssi: not a number", line_no,
                          rssi_dbm);
          // parse_number accepts "inf"/"nan" spellings (from_chars does);
          // a non-finite dBm would flow into Welford accumulation and
          // Gaussian sigma math downstream, so reject it at the row.
          if (!std::isfinite(rssi_dbm)) {
            throw_bad_value("rssi not finite", token + 5, t, line_no);
          }
          have_rssi = true;
          continue;
        default:
          break;
      }
      // Unknown keys are ignored deliberately (forward compatibility); a
      // token without one is malformed.
      t = token_end(token, end);
      const std::string_view bare(token, static_cast<std::size_t>(t - token));
      const auto eq = bare.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        throw_row_error(line_no,
                        "expected key=value, got '" + std::string(bare) + "'");
      }
    }
    if (!have_bssid) throw_row_error(line_no, "missing bssid");
    if (bssid.empty()) throw_row_error(line_no, "empty bssid");
    if (!have_rssi) throw_row_error(line_no, "missing rssi");
    last_time = timestamp_s;
    rows.add(timestamp_s, bssid, ssid, channel, rssi_dbm);
    p = t == end ? end : t + 1;
  }
  rows.finish();
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
      if (!std::isfinite(*value)) {
        throw LocationMapError("location-map: line " +
                               std::to_string(line_no) +
                               ": coordinate not finite: '" +
                               std::string(*token) + "'");
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

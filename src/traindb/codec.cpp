#include "traindb/codec.hpp"

#include <algorithm>
#include <bit>
#include <fstream>

#include "wiscan/scan_buffer.hpp"

namespace loctk::traindb {

namespace {

constexpr char kMagic[4] = {'L', 'T', 'D', 'B'};
constexpr std::uint16_t kVersion = 1;
// Sanity caps so corrupt counts fail fast instead of allocating wild.
constexpr std::uint64_t kMaxStrings = 1 << 24;
constexpr std::uint64_t kMaxPoints = 1 << 24;
constexpr std::uint64_t kMaxSamples = 1ull << 28;

void require(bool ok, const char* what) {
  if (!ok) throw CodecError(what);
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

std::uint16_t get_u16(std::string_view in, std::size_t& pos) {
  require(pos + 2 <= in.size(), "codec: truncated u16");
  const auto lo = static_cast<unsigned char>(in[pos]);
  const auto hi = static_cast<unsigned char>(in[pos + 1]);
  pos += 2;
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

void put_double(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

double get_double(std::string_view in, std::size_t& pos) {
  require(pos + 8 <= in.size(), "codec: truncated double");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
            << (8 * i);
  }
  pos += 8;
  return std::bit_cast<double>(bits);
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

std::string get_string(std::string_view in, std::size_t& pos) {
  const std::uint64_t len = get_varint(in, pos);
  require(len <= in.size() - pos, "codec: truncated string");
  std::string s(in.substr(pos, len));
  pos += len;
  return s;
}

}  // namespace

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t get_varint(std::string_view in, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    require(pos < in.size(), "codec: truncated varint");
    const auto byte = static_cast<unsigned char>(in[pos++]);
    // Byte 10 starts at shift 63: only its low bit fits a u64. A
    // larger payload would shift value bits past bit 63 — silently
    // dropped at best, UB if the shift ever exceeded 63 — so reject
    // oversized encodings outright instead of decoding them mod 2^64.
    require(shift < 63 || (byte & 0x7f) <= 1,
            "codec: varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  throw CodecError("codec: overlong varint");
}

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_i32_stream(std::string& out, std::span<const std::int32_t> values) {
  put_varint(out, values.size());
  std::size_t i = 0;
  std::int64_t prev = 0;
  while (i < values.size()) {
    const std::int64_t delta = static_cast<std::int64_t>(values[i]) - prev;
    std::size_t run = 1;
    // Extend the run while the delta repeats.
    while (i + run < values.size() &&
           static_cast<std::int64_t>(values[i + run]) -
                   static_cast<std::int64_t>(values[i + run - 1]) ==
               delta) {
      ++run;
    }
    put_varint(out, zigzag_encode(delta));
    put_varint(out, run);
    prev = values[i + run - 1];
    i += run;
  }
}

std::vector<std::int32_t> get_i32_stream(std::string_view in,
                                         std::size_t& pos) {
  const std::uint64_t count = get_varint(in, pos);
  require(count <= kMaxSamples, "codec: sample stream too large");
  std::vector<std::int32_t> values;
  values.reserve(count);
  std::int64_t current = 0;
  while (values.size() < count) {
    const std::int64_t delta = zigzag_decode(get_varint(in, pos));
    const std::uint64_t run = get_varint(in, pos);
    require(run >= 1 && values.size() + run <= count,
            "codec: bad run length");
    for (std::uint64_t r = 0; r < run; ++r) {
      current += delta;
      require(current >= INT32_MIN && current <= INT32_MAX,
              "codec: sample out of i32 range");
      values.push_back(static_cast<std::int32_t>(current));
    }
  }
  return values;
}

std::string encode_database(const TrainingDatabase& db) {
  std::string out;
  out.append(kMagic, 4);
  put_u16(out, kVersion);

  const std::uint16_t flags = db.has_samples() ? 1 : 0;
  put_u16(out, flags);
  put_string(out, db.site_name());

  const auto& universe = db.bssid_universe();
  put_varint(out, universe.size());
  for (const std::string& b : universe) put_string(out, b);

  put_varint(out, db.size());
  for (const TrainingPoint& p : db.points()) {
    put_string(out, p.location);
    put_double(out, p.position.x);
    put_double(out, p.position.y);
    put_varint(out, p.per_ap.size());
    for (const ApStatistics& s : p.per_ap) {
      const auto idx = db.bssid_index(s.bssid);
      require(idx.has_value(), "codec: AP missing from universe");
      put_varint(out, *idx);
      put_double(out, s.mean_dbm);
      put_double(out, s.stddev_db);
      put_varint(out, s.sample_count);
      put_varint(out, s.scan_count);
      put_double(out, s.min_dbm);
      put_double(out, s.max_dbm);
      put_i32_stream(out, s.samples_centi_dbm);
    }
  }
  return out;
}

TrainingDatabase decode_database(std::string_view bytes) {
  std::size_t pos = 0;
  require(bytes.size() >= 4 && std::equal(kMagic, kMagic + 4, bytes.begin()),
          "codec: bad magic");
  pos = 4;
  const std::uint16_t version = get_u16(bytes, pos);
  require(version == kVersion, "codec: unsupported version");
  (void)get_u16(bytes, pos);  // flags (informational)

  TrainingDatabase db;
  db.set_site_name(get_string(bytes, pos));

  const std::uint64_t n_bssids = get_varint(bytes, pos);
  require(n_bssids <= kMaxStrings, "codec: too many BSSIDs");
  std::vector<std::string> universe;
  universe.reserve(n_bssids);
  for (std::uint64_t i = 0; i < n_bssids; ++i) {
    universe.push_back(get_string(bytes, pos));
  }

  const std::uint64_t n_points = get_varint(bytes, pos);
  require(n_points <= kMaxPoints, "codec: too many points");
  for (std::uint64_t i = 0; i < n_points; ++i) {
    TrainingPoint p;
    p.location = get_string(bytes, pos);
    p.position.x = get_double(bytes, pos);
    p.position.y = get_double(bytes, pos);
    const std::uint64_t n_aps = get_varint(bytes, pos);
    require(n_aps <= n_bssids, "codec: point has more APs than universe");
    p.per_ap.reserve(n_aps);
    for (std::uint64_t a = 0; a < n_aps; ++a) {
      ApStatistics s;
      const std::uint64_t idx = get_varint(bytes, pos);
      require(idx < universe.size(), "codec: BSSID index out of range");
      s.bssid = universe[idx];
      s.mean_dbm = get_double(bytes, pos);
      s.stddev_db = get_double(bytes, pos);
      s.sample_count = static_cast<std::uint32_t>(get_varint(bytes, pos));
      s.scan_count = static_cast<std::uint32_t>(get_varint(bytes, pos));
      s.min_dbm = get_double(bytes, pos);
      s.max_dbm = get_double(bytes, pos);
      s.samples_centi_dbm = get_i32_stream(bytes, pos);
      p.per_ap.push_back(std::move(s));
    }
    db.add_point(std::move(p));
  }
  require(pos == bytes.size(), "codec: trailing bytes");
  return db;
}

void write_database(const std::filesystem::path& path,
                    const TrainingDatabase& db) {
  std::ofstream os(path, std::ios::binary);
  require(os.good(), "codec: cannot open output file");
  const std::string bytes = encode_database(db);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  require(os.good(), "codec: write failed");
}

TrainingDatabase read_database(const std::filesystem::path& path) {
  try {
    return decode_database(wiscan::read_file_bytes(path));
  } catch (const wiscan::BufferError&) {
    throw CodecError("codec: cannot open input file");
  }
}

Result<TrainingDatabase> try_decode_database(std::string_view bytes) {
  try {
    return decode_database(bytes);
  } catch (const CodecError& e) {
    return Error(ErrorCode::kCorrupt, e.what());
  } catch (const DatabaseError& e) {
    // A mutation can decode into structurally invalid points (e.g.
    // duplicate location names); still corruption, not a toolkit bug.
    return Error(ErrorCode::kCorrupt, e.what());
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal, e.what());
  }
}

Result<TrainingDatabase> try_read_database(
    const std::filesystem::path& path) {
  try {
    return try_decode_database(wiscan::read_file_bytes(path))
        .with_context("reading '" + path.string() + "'");
  } catch (const wiscan::BufferError& e) {
    return Error(ErrorCode::kIo, e.what());
  }
}

DatabaseFileInfo probe_database(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  require(is.good(), "codec: cannot open input file");
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  require(end >= 0, "codec: cannot size input file");
  is.seekg(0, std::ios::beg);

  // One read covers magic, version, flags, and the site-name string
  // (varint length + bytes, capped far below the chunk size).
  char chunk[512];
  is.read(chunk, sizeof chunk);
  const std::string_view head(chunk, static_cast<std::size_t>(is.gcount()));
  require(head.size() >= 4 && std::equal(kMagic, kMagic + 4, head.begin()),
          "codec: bad magic");
  std::size_t pos = 4;
  DatabaseFileInfo info;
  info.version = get_u16(head, pos);
  require(info.version == kVersion, "codec: unsupported version");
  info.flags = get_u16(head, pos);
  const std::uint64_t name_len = get_varint(head, pos);
  require(name_len <= head.size() - pos, "codec: site name overruns header");
  info.site_name = std::string(head.substr(pos, name_len));
  info.file_bytes = static_cast<std::uint64_t>(end);
  return info;
}

}  // namespace loctk::traindb

#include "wiscan/format.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "wiscan/scan_buffer.hpp"

namespace loctk::wiscan {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw FormatError(what);
}

// Drains an already-open stream into one string (the istream entry
// points are compatibility adapters; the path overloads go through
// read_file_bytes and never touch a stream).
std::string slurp(std::istream& is) {
  std::string text;
  char chunk[4096];
  while (is.read(chunk, sizeof chunk) || is.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

}  // namespace

void write_wiscan(std::ostream& os, const WiScanFile& file) {
  os << "# wi-scan v1\n";
  if (!file.location.empty()) os << "# location: " << file.location << '\n';
  os << "# rows: " << file.size() << '\n';
  for (const WiScanRow& row : file.rows()) {
    os << "time=" << row.timestamp_s << " bssid=" << file.bssids()[row.bssid];
    const std::string& ssid = file.ssids()[row.ssid];
    if (!ssid.empty()) os << " ssid=" << ssid;
    if (row.channel != 0) os << " channel=" << row.channel;
    os << " rssi=" << row.rssi_dbm << '\n';
  }
}

void write_wiscan(const std::filesystem::path& path, const WiScanFile& file) {
  std::ofstream os(path);
  require(os.good(), "write_wiscan: cannot open " + path.string());
  write_wiscan(os, file);
  require(os.good(), "write_wiscan: write failed for " + path.string());
}

WiScanFile read_wiscan(std::istream& is,
                       const std::string& fallback_location) {
  return parse_wiscan_buffer(slurp(is), fallback_location);
}

WiScanFile read_wiscan(const std::filesystem::path& path) {
  try {
    return parse_wiscan_buffer(read_file_bytes(path),
                               sanitize_location_name(path.stem().string()));
  } catch (const BufferError& e) {
    throw FormatError("read_wiscan: " + std::string(e.what()));
  }
}

std::string encode_wiscan(const WiScanFile& file) {
  std::ostringstream os;
  write_wiscan(os, file);
  return os.str();
}

WiScanFile decode_wiscan(const std::string& text,
                         const std::string& fallback_location) {
  return parse_wiscan_buffer(text, fallback_location);
}

std::string sanitize_location_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char raw : name) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      out.push_back(static_cast<char>(std::tolower(c)));
    } else if (c == ' ' || c == '/' || c == '\\' || c == '_' || c == '-') {
      if (!out.empty() && out.back() != '-') out.push_back('-');
    }
    // Other punctuation dropped.
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

}  // namespace loctk::wiscan

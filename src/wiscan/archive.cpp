#include "wiscan/archive.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "wiscan/scan_buffer.hpp"

namespace loctk::wiscan {

namespace {

constexpr char kMagic[4] = {'L', 'A', 'R', '1'};
// Caps protect against allocating on garbage length fields.
constexpr std::uint64_t kMaxEntries = 1 << 20;
constexpr std::uint64_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxDataLen = 1ull << 32;

void put_u64(std::ostream& os, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) os.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t get_u64(std::string_view in, std::size_t& pos) {
  if (pos + 8 > in.size()) throw ArchiveError("archive: truncated integer");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos += 8;
  return v;
}

std::string_view get_bytes(std::string_view in, std::size_t& pos,
                           std::uint64_t len, const char* what) {
  if (len > in.size() - pos) throw ArchiveError(what);
  const std::string_view out = in.substr(pos, len);
  pos += len;
  return out;
}

// Drains an already-open stream (compatibility adapter; the path
// overload goes through read_file_bytes).
std::string slurp(std::istream& is) {
  std::string text;
  char chunk[4096];
  while (is.read(chunk, sizeof chunk) || is.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  return text;
}

}  // namespace

void Archive::validate_path(const std::string& path) {
  if (path.empty()) throw ArchiveError("archive: empty entry path");
  if (path.front() == '/') throw ArchiveError("archive: absolute entry path");
  // Reject empty, "." and ".." components.
  const std::string_view sv(path);
  std::size_t start = 0;
  while (start <= sv.size()) {
    const std::size_t slash = sv.find('/', start);
    const std::string_view part =
        sv.substr(start, slash == std::string_view::npos ? slash
                                                         : slash - start);
    if (part.empty() || part == "." || part == "..") {
      throw ArchiveError("archive: unsafe entry path: " + path);
    }
    if (slash == std::string_view::npos) break;
    start = slash + 1;
  }
}

void Archive::add(const std::string& path, std::string bytes) {
  validate_path(path);
  entries_[path] = std::move(bytes);
}

bool Archive::contains(const std::string& path) const {
  return entries_.count(path) > 0;
}

const std::string& Archive::bytes(const std::string& path) const {
  const auto it = entries_.find(path);
  if (it == entries_.end()) {
    throw ArchiveError("archive: no such entry: " + path);
  }
  return it->second;
}

void Archive::write(std::ostream& os) const {
  os.write(kMagic, 4);
  put_u64(os, entries_.size());
  for (const auto& [name, data] : entries_) {
    put_u64(os, name.size());
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    put_u64(os, data.size());
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
}

void Archive::write(const std::filesystem::path& file) const {
  std::ofstream os(file, std::ios::binary);
  if (!os.good()) {
    throw ArchiveError("archive: cannot open " + file.string());
  }
  write(os);
  if (!os.good()) {
    throw ArchiveError("archive: write failed for " + file.string());
  }
}

Archive Archive::read_bytes(std::string_view bytes) {
  std::size_t pos = 0;
  if (bytes.size() < 4 ||
      !std::equal(kMagic, kMagic + 4, bytes.begin())) {
    throw ArchiveError("archive: bad magic");
  }
  pos = 4;
  const std::uint64_t count = get_u64(bytes, pos);
  if (count > kMaxEntries) throw ArchiveError("archive: too many entries");

  Archive ar;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = get_u64(bytes, pos);
    if (name_len == 0 || name_len > kMaxNameLen) {
      throw ArchiveError("archive: bad name length");
    }
    const std::string_view name =
        get_bytes(bytes, pos, name_len, "archive: truncated name");
    const std::uint64_t data_len = get_u64(bytes, pos);
    if (data_len > kMaxDataLen) throw ArchiveError("archive: bad data length");
    const std::string_view data =
        get_bytes(bytes, pos, data_len, "archive: truncated data");
    ar.add(std::string(name), std::string(data));
  }
  return ar;
}

Archive Archive::read(std::istream& is) { return read_bytes(slurp(is)); }

Archive Archive::read(const std::filesystem::path& file) {
  try {
    return read_bytes(read_file_bytes(file));
  } catch (const BufferError& e) {
    throw ArchiveError("archive: " + std::string(e.what()));
  }
}

Archive Archive::pack_directory(const std::filesystem::path& dir) {
  Archive ar;
  if (!std::filesystem::is_directory(dir)) {
    throw ArchiveError("archive: not a directory: " + dir.string());
  }
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    try {
      ar.add(entry.path().lexically_relative(dir).generic_string(),
             read_file_bytes(entry.path()));
    } catch (const BufferError& e) {
      throw ArchiveError("archive: " + std::string(e.what()));
    }
  }
  return ar;
}

void Archive::unpack_to(const std::filesystem::path& dir) const {
  for (const auto& [name, data] : entries_) {
    const std::filesystem::path out = dir / name;
    std::filesystem::create_directories(out.parent_path());
    std::ofstream os(out, std::ios::binary);
    if (!os.good()) {
      throw ArchiveError("archive: cannot write " + out.string());
    }
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
}

}  // namespace loctk::wiscan

#include "wiscan/location_map.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "wiscan/scan_buffer.hpp"

namespace loctk::wiscan {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw LocationMapError(what);
}

// Writes a name, quoting when it contains whitespace or quotes.
void write_name(std::ostream& os, const std::string& name) {
  const bool needs_quotes =
      name.find_first_of(" \t\"") != std::string::npos || name.empty();
  if (!needs_quotes) {
    os << name;
    return;
  }
  os << '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
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

void LocationMap::add(const std::string& name, geom::Vec2 position) {
  require(!contains(name), "location-map: duplicate name: " + name);
  entries_.push_back({name, position});
}

void LocationMap::set(const std::string& name, geom::Vec2 position) {
  for (NamedLocation& e : entries_) {
    if (e.name == name) {
      e.position = position;
      return;
    }
  }
  entries_.push_back({name, position});
}

bool LocationMap::contains(const std::string& name) const {
  return find(name).has_value();
}

std::optional<geom::Vec2> LocationMap::find(const std::string& name) const {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const NamedLocation& e) { return e.name == name; });
  if (it == entries_.end()) return std::nullopt;
  return it->position;
}

std::optional<std::string> LocationMap::nearest(geom::Vec2 p) const {
  if (entries_.empty()) return std::nullopt;
  const NamedLocation* best = nullptr;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const NamedLocation& e : entries_) {
    const double d2 = geom::distance2(e.position, p);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = &e;
    }
  }
  return best->name;
}

void LocationMap::write(std::ostream& os) const {
  os << "# location-map v1\n";
  for (const NamedLocation& e : entries_) {
    write_name(os, e.name);
    os << '\t' << e.position.x << '\t' << e.position.y << '\n';
  }
}

void LocationMap::write(const std::filesystem::path& path) const {
  std::ofstream os(path);
  require(os.good(), "location-map: cannot open " + path.string());
  write(os);
  require(os.good(), "location-map: write failed for " + path.string());
}

LocationMap LocationMap::read(std::istream& is) {
  return parse_location_map_buffer(slurp(is));
}

LocationMap LocationMap::read(const std::filesystem::path& path) {
  try {
    return parse_location_map_buffer(read_file_bytes(path));
  } catch (const BufferError& e) {
    throw LocationMapError("location-map: " + std::string(e.what()));
  }
}

}  // namespace loctk::wiscan

#include "wiscan/survey.hpp"

#include "wiscan/format.hpp"

namespace loctk::wiscan {

WiScanFile SurveyCampaign::survey_location(const NamedLocation& loc) {
  if (config_.reset_session_per_location) scanner_->reset_session();
  WiScanFile file;
  file.location = loc.name;

  if (config_.headings.empty()) {
    append_scans(file,
                 scanner_->collect(loc.position, config_.scans_per_location),
                 config_.ssid);
    return file;
  }

  // Rotate through the configured headings, splitting the dwell as
  // evenly as possible (earlier headings absorb the remainder).
  const auto n_headings = config_.headings.size();
  const int base = config_.scans_per_location / static_cast<int>(n_headings);
  int remainder =
      config_.scans_per_location % static_cast<int>(n_headings);
  for (const double heading : config_.headings) {
    scanner_->set_heading(heading);
    const int chunk = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    append_scans(file, scanner_->collect(loc.position, chunk), config_.ssid);
  }
  return file;
}

Collection SurveyCampaign::run(const LocationMap& map) {
  Collection c;
  c.files.reserve(map.size());
  for (const NamedLocation& loc : map.locations()) {
    c.files.push_back(survey_location(loc));
  }
  return c;
}

Collection SurveyCampaign::run_to_directory(
    const LocationMap& map, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  Collection c = run(map);
  for (const WiScanFile& f : c.files) {
    write_wiscan(dir / (sanitize_location_name(f.location) + ".wiscan"), f);
  }
  return c;
}

Archive SurveyCampaign::run_to_archive(const LocationMap& map) {
  Archive ar;
  for (const WiScanFile& f : run(map).files) {
    ar.add(sanitize_location_name(f.location) + ".wiscan",
           encode_wiscan(f));
  }
  return ar;
}

}  // namespace loctk::wiscan

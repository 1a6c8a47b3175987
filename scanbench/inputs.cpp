#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "radio/campus.hpp"
#include "radio/scanner.hpp"
#include "wiscan/location_map.hpp"
#include "wiscan/survey.hpp"

namespace scanbench {

namespace fs = std::filesystem;
using loctk::testkit::SiteModel;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> v;

    WorkloadSpec house;
    house.name = "house_fleet";
    house.why =
        "paper house, 4 APs, 12 points: scoring is tiny, so the per-scan "
        "service path (window, observation, session, metrics) dominates";
    house.site = SiteModel::kPaperHouse;
    house.sites = 4;
    house.devices_per_site = 64;
    house.scans_per_device = 100;
    house.survey_scans = 90;  // the paper's 1.5 min dwell at ~1 scan/s
    house.fault_schedule = true;
    house.offered_scans_per_s = 200000.0;
    house.latency_limit_s = 50e-6;
    v.push_back(house);

    WorkloadSpec campus;
    campus.name = "campus_fleet";
    campus.why =
        "2x3-floor campus, 1020 APs, 240 rooms: pruned locate and the "
        "1020-slot observation build dominate; heavy ingest; fleet frames";
    campus.site = SiteModel::kCampus;
    campus.sites = 1;
    campus.devices_per_site = 96;
    campus.scans_per_device = 40;
    campus.survey_scans = 10;
    campus.offered_scans_per_s = 2500.0;
    campus.latency_limit_s = 2e-3;
    campus.frames = true;
    v.push_back(campus);

    WorkloadSpec office;
    office.name = "office_republish";
    office.why =
        "four 6-AP office floors, 77 points, reads beside lifecycle "
        "republishes: swap-side cost shows here; pruning is slower than dense";
    office.site = SiteModel::kOfficeFloor;
    office.sites = 4;
    office.devices_per_site = 16;
    office.scans_per_device = 100;
    office.office_aps = 6;
    office.survey_scans = 30;
    office.offered_scans_per_s = 80000.0;
    office.latency_limit_s = 100e-6;
    office.republish_every_scans = 20000;
    office.resurvey_points = 3;
    office.resurvey_sets = 8;
    v.push_back(office);
    return v;
  }();
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

std::uint64_t site_seed(std::uint64_t seed, std::size_t site) {
  return seed * 1000003ULL + 7919ULL * (site + 1);
}

/// The soaks' standing fault schedule (testkit/server_soak.cpp).
void add_fault_schedule(loctk::testkit::ScenarioSpec& spec) {
  using Kind = loctk::testkit::FaultEvent::Kind;
  const auto devices = static_cast<std::uint32_t>(spec.devices.size());
  for (std::uint32_t d = 0; d < devices; d += 7) {
    spec.faults.push_back(
        {.device = d, .scan_index = (d % 13) + 3, .kind = Kind::kNonFiniteRssi});
  }
  for (std::uint32_t d = 3; d < devices; d += 11) {
    spec.faults.push_back(
        {.device = d, .scan_index = (d % 17) + 2, .kind = Kind::kDropScan});
  }
  for (std::uint32_t d = 5; d < devices; d += 9) {
    spec.faults.push_back({.device = d,
                           .scan_index = (d % 19) + 1,
                           .kind = Kind::kDropStrongestAp});
  }
}

/// Surveys every room of every campus floor into one wi-scan directory
/// and returns the campus-wide location map (names carry the floor tag,
/// so rooms stacked above each other stay distinct).
loctk::wiscan::LocationMap survey_campus(const loctk::radio::Campus& campus,
                                         const WorkloadSpec& w,
                                         std::uint64_t seed,
                                         const fs::path& survey_dir) {
  loctk::wiscan::LocationMap all;
  for (std::size_t b = 0; b < campus.building_count(); ++b) {
    const std::vector<loctk::geom::Vec2> rooms = campus.room_centers(b);
    for (std::size_t f = 0; f < campus.floors_per_building(); ++f) {
      std::string tag = "B";
      tag += std::to_string(b);
      tag += 'F';
      tag += std::to_string(f);
      loctk::wiscan::LocationMap floor_map;
      for (std::size_t r = 0; r < rooms.size(); ++r) {
        floor_map.add(tag + "-R" + std::to_string(r), rooms[r]);
        all.add(tag + "-R" + std::to_string(r), rooms[r]);
      }
      const loctk::radio::CampusFloorView view(campus, b, f);
      loctk::radio::Scanner scanner(view, loctk::radio::ChannelConfig{},
                                    seed + campus.flat_floor(b, f) * 0x1009u);
      loctk::wiscan::SurveyConfig cfg;
      cfg.scans_per_location = w.survey_scans;
      loctk::wiscan::SurveyCampaign(scanner, cfg)
          .run_to_directory(floor_map, survey_dir);
    }
  }
  return all;
}

/// Resurvey dwells: `resurvey_sets` sets of `resurvey_points` points,
/// each dwell a fresh receiver session standing at the training point,
/// frozen as a trace whose "devices" are dwells.
loctk::testkit::ScanTrace record_resurvey(const loctk::testkit::Scenario& sc,
                                          const loctk::wiscan::LocationMap& map,
                                          const WorkloadSpec& w,
                                          std::uint64_t seed) {
  loctk::testkit::ScanTrace trace;
  trace.scenario = sc.spec().name + "-resurvey";
  const std::size_t dwells = w.resurvey_sets * w.resurvey_points;
  trace.device_count = static_cast<std::uint32_t>(dwells);
  const auto& locations = map.locations();
  for (std::size_t d = 0; d < dwells; ++d) {
    // Stride 7 walks the 77-point grid without revisiting a point
    // within a set.
    const loctk::wiscan::NamedLocation& loc =
        locations[(d * 7) % locations.size()];
    loctk::radio::Scanner scanner =
        sc.testbed().make_scanner(seed ^ (0x5E5E0000ULL + d));
    for (int i = 0; i < w.survey_scans; ++i) {
      loctk::testkit::TraceScan ts;
      ts.device = static_cast<std::uint32_t>(d);
      ts.truth = loc.position;
      ts.scan = scanner.scan_at(loc.position);
      trace.scans.push_back(std::move(ts));
    }
  }
  return trace;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("scanbench: cannot read " + path.string());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace

loctk::testkit::ScenarioSpec scenario_spec(const WorkloadSpec& w,
                                           std::uint64_t seed,
                                           std::size_t site) {
  using loctk::testkit::ScenarioSpec;
  const std::uint64_t s = site_seed(seed, site);
  ScenarioSpec spec =
      w.site == SiteModel::kCampus
          ? ScenarioSpec::campus_fleet(w.devices_per_site, w.scans_per_device, s)
          : ScenarioSpec::fleet(w.devices_per_site, w.scans_per_device, s,
                                w.site);
  spec.name = w.name + "-site" + std::to_string(site);
  spec.ap_count = w.office_aps;
  spec.grid_spacing_ft = w.grid_spacing_ft;
  // The scenario's own training database is never used; 3 passes is
  // the least that survives the generator's min-samples cut.
  spec.train_scans = 3;
  spec.keep_samples = false;
  if (w.fault_schedule) add_fault_schedule(spec);
  return spec;
}

void synthesize(const WorkloadSpec& w, std::uint64_t seed,
                const fs::path& dir) {
  for (std::size_t s = 0; s < w.sites; ++s) {
    const fs::path site_dir = dir / ("site-" + std::to_string(s));
    const fs::path survey_dir = site_dir / "survey";
    fs::create_directories(survey_dir);

    const loctk::testkit::Scenario scenario(scenario_spec(w, seed, s));
    const std::uint64_t survey_seed = site_seed(seed, s) ^ 0x5A17E7ULL;
    loctk::wiscan::LocationMap map;
    if (w.site == SiteModel::kCampus) {
      map = survey_campus(scenario.campus(), w, survey_seed, survey_dir);
    } else {
      map = loctk::core::make_training_grid(
          scenario.testbed().environment().footprint(), w.grid_spacing_ft);
      loctk::radio::Scanner scanner = scenario.testbed().make_scanner(survey_seed);
      loctk::wiscan::SurveyConfig cfg;
      cfg.scans_per_location = w.survey_scans;
      loctk::wiscan::SurveyCampaign(scanner, cfg).run_to_directory(map, survey_dir);
    }
    map.write(site_dir / "locations.map");
    loctk::testkit::write_trace(site_dir / "trace.ltrc", scenario.record_trace());
    if (w.resurvey_sets > 0) {
      loctk::testkit::write_trace(
          site_dir / "resurvey.ltrc",
          record_resurvey(scenario, map, w, survey_seed));
    }
  }
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

Inputs load_inputs(const WorkloadSpec& w, const fs::path& dir) {
  Inputs inputs;
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  inputs.digest = kFnvOffset;
  for (const fs::path& f : files) {
    const std::string rel = fs::relative(f, dir).generic_string();
    const std::string bytes = read_bytes(f);
    inputs.digest = fnv1a(bytes, fnv1a(rel, inputs.digest));
    inputs.bytes += bytes.size();
  }

  for (std::size_t s = 0; s < w.sites; ++s) {
    const fs::path site_dir = dir / ("site-" + std::to_string(s));
    SiteInputs site;
    site.survey_dir = site_dir / "survey";
    site.location_map = site_dir / "locations.map";
    auto trace = loctk::testkit::try_read_trace(site_dir / "trace.ltrc");
    if (!trace.ok()) {
      throw std::runtime_error("scanbench: " + trace.error().to_string());
    }
    site.trace = std::move(trace).value();
    if (w.resurvey_sets > 0) {
      auto resurvey = loctk::testkit::try_read_trace(site_dir / "resurvey.ltrc");
      if (!resurvey.ok()) {
        throw std::runtime_error("scanbench: " + resurvey.error().to_string());
      }
      const loctk::wiscan::LocationMap map =
          loctk::wiscan::LocationMap::read(site.location_map);
      for (const std::vector<std::size_t>& idx :
           resurvey.value().scans_by_device()) {
        if (idx.empty()) continue;
        loctk::lifecycle::SurveyDwell dwell;
        dwell.position = resurvey.value().scans[idx.front()].truth;
        dwell.location = map.nearest(dwell.position).value_or("");
        for (std::size_t i : idx) {
          dwell.scans.push_back(resurvey.value().scans[i].scan);
        }
        site.resurvey.push_back(std::move(dwell));
      }
    }
    inputs.sites.push_back(std::move(site));
  }
  return inputs;
}

}  // namespace scanbench

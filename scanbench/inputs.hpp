#pragma once

/// \file inputs.hpp
/// The benchmark's workloads and their seeded inputs.
///
/// A workload is fixed data: which site model, how many sites and
/// devices, the survey density, and the paced load. Its *inputs* are a
/// pure function of (workload, seed) and are synthesized by a separate
/// `scanbench synth` process, outside any timed region, into one
/// directory per site:
///
///     site-<s>/survey/*.wiscan   the training survey (wi-scan files)
///     site-<s>/locations.map     the location map
///     site-<s>/trace.ltrc        the recorded fleet scan trace
///     site-<s>/resurvey.ltrc     office_republish only: resurvey dwells
///
/// The measuring process receives only those files; its set-up is the
/// paper's ingest path over them (load the collection, generate the
/// training database, compile, build the locator, publish the site).

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "lifecycle/intake.hpp"
#include "testkit/scenario.hpp"
#include "testkit/trace.hpp"

namespace scanbench {

struct WorkloadSpec {
  std::string name;
  /// One line: why the workload exists (what it stresses).
  std::string why;
  loctk::testkit::SiteModel site = loctk::testkit::SiteModel::kPaperHouse;
  std::size_t sites = 1;
  std::size_t devices_per_site = 1;
  int scans_per_device = 1;
  /// Office-floor AP count (kOfficeFloor only).
  int office_aps = 6;
  /// Training-grid spacing for single-floor sites.
  double grid_spacing_ft = 10.0;
  /// Wi-scan passes captured per surveyed location.
  int survey_scans = 1;
  /// Apply the soaks' standing fault schedule (NaN RSSI, dropped
  /// scans, vanished strongest AP) to every site's fleet.
  bool fault_schedule = false;
  /// Paced phase: whole-fleet offered rate (scans/s), fixed per
  /// workload so the offered load never follows the code: a third to a
  /// half of the saturated rate measured when the benchmark was defined,
  /// low enough that the host's slow spells (±15%, and pauses) do not
  /// push the fleet into overload.
  double offered_scans_per_s = 1.0;
  /// Paced latency limit behind slo_miss_frac.
  double latency_limit_s = 1.0;
  /// office_republish: one republish wave (every site resurveys
  /// `resurvey_points` points and republishes) per this many scans of
  /// fleet progress; 0 disables the control thread.
  std::uint64_t republish_every_scans = 0;
  std::size_t resurvey_points = 0;
  /// Distinct resurvey dwell sets per site, cycled wave after wave.
  std::size_t resurvey_sets = 0;
  /// campus_fleet: render one fleet frame per tick after the scans.
  bool frames = false;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// The scenario site `site`'s trace is recorded from. Deterministic in
/// (workload, seed, site). Its own training database is unused (the
/// benchmark trains from the synthesized survey files), so it is made
/// as small as the generator allows.
loctk::testkit::ScenarioSpec scenario_spec(const WorkloadSpec& w,
                                           std::uint64_t seed,
                                           std::size_t site);

/// Writes the inputs of (w, seed) into `dir` (created if needed).
void synthesize(const WorkloadSpec& w, std::uint64_t seed,
                const std::filesystem::path& dir);

struct SiteInputs {
  std::filesystem::path survey_dir;
  std::filesystem::path location_map;
  loctk::testkit::ScanTrace trace;
  /// office_republish only, in dwell order.
  std::vector<loctk::lifecycle::SurveyDwell> resurvey;
};

struct Inputs {
  std::vector<SiteInputs> sites;
  /// FNV-1a 64 over every input file (sorted relative path + bytes):
  /// equal digests mean two runs replayed identical inputs.
  std::uint64_t digest = 0;
  std::uint64_t bytes = 0;
};

/// Reads the traces and digests every file under `dir`.
Inputs load_inputs(const WorkloadSpec& w, const std::filesystem::path& dir);

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset);

}  // namespace scanbench

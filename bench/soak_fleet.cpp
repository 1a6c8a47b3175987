// SOAK_FLEET — the scheduled-CI fleet soak driver.
//
// Synthesizes a fleet scenario (device count, scans per device, and
// seed from the command line) with the standing fault schedule,
// records its scan trace, replays it through a one-site
// `LocationServer` on the default thread pool with snapshot swap waves
// landing under load (testkit/server_soak), and checks the full
// invariant battery. Artifacts:
//
//   --report PATH    deterministic run-report JSON (replay-comparable)
//   --metrics PATH   process metrics-registry snapshot JSON
//   --trace PATH     the recorded scan trace (.ltrc)
//
// `--server` switches to the multi-site soak: the fleet is split
// across `--sites` venues, each its own shard of one server.
// `--devices` stays the *total* fleet size, so the nightly job can say
// `--server --devices 10000`. `--swap-every` sets the swap-wave
// spacing in either leg.
//
// `--campus` runs the classic leg on a generated multi-building campus
// (1000+ APs, per-floor attenuation, heterogeneous device offsets)
// instead of the single-floor site; under `--server`, `--campus-sites
// K` synthesizes the first K sites as campuses so big-universe
// snapshots ride the swap waves.
//
// Exit status is 0 only when every invariant holds, so the CI job
// fails on any breach. The scheduled workflow runs this under TSan
// with >= 64 devices (docs/TESTING.md, "soak").

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <thread>

#include "base/metrics.hpp"
#include "testkit/drift.hpp"
#include "testkit/scenario.hpp"
#include "testkit/server_soak.hpp"
#include "testkit/trace.hpp"

using namespace loctk;

namespace {

struct Options {
  std::size_t devices = 64;
  int scans = 40;
  std::uint64_t seed = 64;
  double max_p99_s = 5.0;
  bool server = false;
  std::size_t sites = 8;
  std::size_t swap_every = 0;  // 0 = derive (~16 waves)
  bool drift = false;
  int drift_reruns = 4;
  bool campus = false;
  std::size_t campus_sites = 0;
  std::string frames_dir;
  std::size_t frame_every = 1;
  std::string report_path;
  std::string metrics_path;
  std::string trace_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--devices N] [--scans M] [--seed S]\n"
               "          [--max-p99 SECONDS] [--report PATH]\n"
               "          [--metrics PATH] [--trace PATH]\n"
               "          [--server] [--sites K] [--swap-every SCANS]\n"
               "          [--drift] [--drift-reruns N]\n"
               "          [--campus] [--campus-sites K]\n"
               "          [--frames DIR] [--frame-every N]\n",
               argv0);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    if (flag == "--devices") {
      opt.devices = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (flag == "--scans") {
      opt.scans = std::atoi(value());
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--max-p99") {
      opt.max_p99_s = std::atof(value());
    } else if (flag == "--report") {
      opt.report_path = value();
    } else if (flag == "--metrics") {
      opt.metrics_path = value();
    } else if (flag == "--trace") {
      opt.trace_path = value();
    } else if (flag == "--server") {
      opt.server = true;
    } else if (flag == "--sites") {
      opt.sites = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (flag == "--swap-every") {
      opt.swap_every =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (flag == "--drift") {
      opt.drift = true;
    } else if (flag == "--drift-reruns") {
      opt.drift_reruns = std::atoi(value());
    } else if (flag == "--campus") {
      opt.campus = true;
    } else if (flag == "--campus-sites") {
      opt.campus_sites =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (flag == "--frames") {
      opt.frames_dir = value();
    } else if (flag == "--frame-every") {
      opt.frame_every =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else {
      usage(argv[0]);
    }
  }
  if (opt.devices == 0 || opt.scans <= 0 || opt.sites == 0) usage(argv[0]);
  return opt;
}

void write_text_file(const std::string& path, const std::string& body) {
  std::ofstream os(path, std::ios::binary);
  os << body << '\n';
  if (!os) {
    std::fprintf(stderr, "soak_fleet: failed to write %s\n", path.c_str());
    std::exit(2);
  }
  std::printf("wrote %s\n", path.c_str());
}

/// Prints `result`, writes the artifact files, and returns the exit
/// status: 0 only when every invariant held.
int finish(const testkit::SoakResult& result, const Options& opt) {
  std::fputs(result.report.to_text().c_str(), stdout);
  std::printf(
      "  wall %.2fs   on_scan mean %.1fus   p99 %.1fus\n"
      "  swap waves %llu (%llu under load), max generation %llu\n",
      result.wall_s, 1e6 * result.mean_on_scan_s,
      1e6 * result.p99_on_scan_s,
      static_cast<unsigned long long>(result.swap_waves),
      static_cast<unsigned long long>(result.swap_waves_under_load),
      static_cast<unsigned long long>(result.max_generation));
  if (result.frames_written > 0) {
    std::printf("  fleet frames: %llu written to %s\n",
                static_cast<unsigned long long>(result.frames_written),
                opt.frames_dir.c_str());
  }

  if (!opt.report_path.empty()) {
    write_text_file(opt.report_path, result.report.to_json());
  }
  if (!opt.metrics_path.empty()) {
    write_text_file(opt.metrics_path,
                    metrics::MetricsRegistry::global().snapshot().to_json());
  }

  if (!result.ok()) {
    for (const std::string& v : result.violations) {
      std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("all invariants held (%zu scans, %zu devices, %zu sites)\n",
              result.report.scans_replayed,
              static_cast<std::size_t>(result.report.device_count),
              result.site_reports.size());
  return 0;
}

/// The classic leg: one synthesized fleet (or `--campus` site) as a
/// one-site soak; `--trace` writes its recorded scan trace.
int run_fleet_mode(const Options& opt) {
  testkit::ScenarioSpec spec =
      opt.campus
          ? testkit::ScenarioSpec::campus_fleet(opt.devices, opt.scans,
                                                opt.seed)
          : testkit::ScenarioSpec::fleet(opt.devices, opt.scans, opt.seed);
  if (opt.campus) {
    // A campus survey covers 240 rooms x 1020 APs; the single-site
    // default of 90 scans per room would spend the soak budget on
    // synthesis rather than replay.
    spec.train_scans = 12;
  }
  testkit::add_fault_schedule(spec);

  std::printf("soak_fleet: %zu devices x %d scans, seed %llu\n", opt.devices,
              opt.scans, static_cast<unsigned long long>(opt.seed));
  const testkit::Scenario scenario(spec);
  const testkit::ScanTrace trace = scenario.record_trace();
  std::printf("recorded trace: %zu scans (%zu bytes encoded)\n",
              trace.scans.size(), testkit::encode_trace(trace).size());
  if (!opt.trace_path.empty()) {
    testkit::write_trace(opt.trace_path, trace);
    std::printf("wrote %s\n", opt.trace_path.c_str());
  }

  testkit::SoakConfig config;
  config.swap_every_scans = opt.swap_every;
  config.max_p99_on_scan_s = opt.max_p99_s;
  return finish(testkit::run_soak({{trace, scenario.database()}},
                                  trace.scenario, config),
                opt);
}

/// The `--server` leg: total fleet split across `--sites` shards of
/// one LocationServer. The combined (cross-site, deterministic) report
/// is what `--report` writes.
int run_server_mode(const Options& opt) {
  testkit::ServerSoakConfig config;
  config.sites = opt.sites;
  config.devices_per_site =
      std::max<std::size_t>(1, opt.devices / opt.sites);
  config.scans_per_device = opt.scans;
  config.seed = opt.seed;
  config.swap_every_scans = opt.swap_every;
  config.max_p99_on_scan_s = opt.max_p99_s;
  config.campus_sites =
      opt.campus ? config.sites : std::min(opt.campus_sites, config.sites);
  config.frames_dir = opt.frames_dir;
  config.frame_every_ticks = std::max<std::size_t>(1, opt.frame_every);

  std::printf(
      "soak_fleet --server: %zu sites x %zu devices x %d scans, seed %llu"
      " (%zu campus)\n",
      config.sites, config.devices_per_site, config.scans_per_device,
      static_cast<unsigned long long>(config.seed), config.campus_sites);
  return finish(testkit::run_server_soak(config), opt);
}

/// The `--drift` leg: full decay-and-recovery arcs through the
/// fingerprint lifecycle (testkit/drift.hpp) — drift detection on a
/// live server, quarantined resurvey, delta-compile bit-exact against
/// a rebuild, and republished accuracy back inside the paper bands.
int run_drift_mode(const Options& opt) {
  testkit::DriftScenarioConfig config;
  config.reruns = std::max(1, opt.drift_reruns);
  config.seed_base = opt.seed;
  std::printf("soak_fleet --drift: %d decay-and-recovery arcs, seed base %llu\n",
              config.reruns, static_cast<unsigned long long>(config.seed_base));
  const testkit::DriftSoakResult result = testkit::run_drift_soak(config);
  std::fputs(result.to_text().c_str(), stdout);
  if (!result.ok()) {
    for (const std::string& v : result.violations) {
      std::fprintf(stderr, "DRIFT GATE VIOLATION: %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("drift recovery held (%d arcs, %llu republishes)\n",
              result.reruns,
              static_cast<unsigned long long>(result.republishes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (opt.drift && !opt.server) return run_drift_mode(opt);
  if (opt.server && opt.drift) {
    // Mid-run drift schedule: the lifecycle republishes its own site
    // (snapshot swaps under its monitoring traffic) while the server
    // soak hammers the rest of the process — so drift recovery and
    // the multi-site swap machinery soak concurrently, and TSan
    // watches both.
    int drift_rc = 1;
    std::thread drifter([&] { drift_rc = run_drift_mode(opt); });
    const int server_rc = run_server_mode(opt);
    drifter.join();
    return server_rc != 0 ? server_rc : drift_rc;
  }
  if (opt.server) return run_server_mode(opt);
  return run_fleet_mode(opt);
}

#pragma once

/// \file replay.hpp
/// Cold start and trace replay through `serve::LocationServer::on_scan`.
///
/// Load model: everything runs in one process. A fixed number of
/// data-plane worker threads each own a disjoint set of devices and
/// replay each device's scans in capture order (a worker interleaves its
/// devices scan by scan), so every device's fix stream is a function of
/// its trace alone, whatever the thread timing. A phase replays the
/// trace pass after pass until its time is up, digesting each device's
/// first-pass fixes; a single-threaded reference pass gives the digests
/// they must match and the accuracy figures.
///
///  * saturate — closed loop: every worker replays back to back;
///  * paced    — open loop: worker w sends on its own fixed schedule
///               (stats.hpp `PacedSchedule`), and latency counts from
///               when the scan was due.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compiled_db.hpp"
#include "core/locator.hpp"
#include "core/probabilistic.hpp"
#include "inputs.hpp"
#include "serve/location_server.hpp"
#include "stats.hpp"

namespace scanbench {

/// The benchmark's LocatorFactory: the served locator of every site
/// (the soaks' pruned maximum-likelihood configuration).
std::shared_ptr<const loctk::core::Locator> make_served_locator(
    std::shared_ptr<const loctk::core::CompiledDatabase> compiled);
/// Its exhaustive twin over the same compilation (trace probes only).
std::shared_ptr<const loctk::core::Locator> make_dense_locator(
    std::shared_ptr<const loctk::core::CompiledDatabase> compiled);

/// Wall time of each cold-start stage, summed over the sites.
struct SetupTimes {
  double load_s = 0.0;      ///< wiscan::load_collection + location map
  double generate_s = 0.0;  ///< traindb::generate_database
  double compile_s = 0.0;   ///< CompiledDatabase::compile_owned
  double locator_s = 0.0;   ///< the LocatorFactory
  double add_site_s = 0.0;  ///< LocationServer::add_site
  double total_s = 0.0;
  std::uint64_t bytes_read = 0;  ///< ingest.bytes_read delta
};

/// What a cold start produced: per site, the compilation and the
/// locator published from it.
struct ServedSites {
  std::vector<std::shared_ptr<const loctk::core::CompiledDatabase>> compiled;
  std::vector<std::shared_ptr<const loctk::core::Locator>> locators;
};

std::unique_ptr<loctk::serve::LocationServer> make_server(
    const WorkloadSpec& w);

/// One cold start of every site from its input files into `server`.
ServedSites cold_start(const Inputs& inputs,
                       loctk::serve::LocationServer& server,
                       SetupTimes* times);

/// Publishes already-built sites into a fresh server (phase start).
void publish(const ServedSites& sites, loctk::serve::LocationServer& server);

/// One replay step: a device's scan.
struct Step {
  std::uint32_t site = 0;
  std::uint32_t device = 0;  ///< global device slot
  const loctk::testkit::TraceScan* scan = nullptr;
};

struct ReplayPlan {
  std::size_t workers = 1;
  /// One pass per worker, its devices interleaved scan by scan.
  std::vector<std::vector<Step>> per_worker;
  std::vector<loctk::serve::DeviceId> device_ids;  ///< per device slot
  std::uint64_t pass_scans = 0;
};

ReplayPlan make_plan(const Inputs& inputs, std::size_t workers);

/// First-pass results of one device. Phases fill only `digest` and
/// `scans`; the reference pass fills everything.
struct DeviceTally {
  std::uint64_t digest = kFnvOffset;  ///< over every fix, in order
  std::uint64_t scans = 0;
  /// Reference pass: the digest after each scan, so a phase that ended
  /// mid-pass can be checked on the prefix it completed.
  std::vector<std::uint64_t> prefix;
  std::uint64_t valid = 0;  ///< valid and not degraded
  std::vector<double> error_ft;
};

enum class Pacing { kSaturate, kPaced };

/// Workers stamp the clock once per this many completed scans.
inline constexpr std::uint64_t kBatchScans = 16;

/// Runs beside the workers of a phase (office_republish's lifecycle
/// thread). `progress` counts completed scans (in batches of kBatchScans
/// while the workers run, exactly once they stop); `workers_done` turns true
/// once every worker has stopped, after which `run` must finish the
/// work the final progress calls for and return.
using ControlPlane = std::function<void(const std::atomic<std::uint64_t>& progress,
                                        const std::atomic<bool>& workers_done)>;

struct PhaseConfig {
  Pacing pacing = Pacing::kSaturate;
  double seconds = 1.0;
  double offered_per_s = 1.0;  ///< kPaced only
  /// Time every on_scan (a span per call) — the traced run only.
  bool spans = false;
  ControlPlane control = {};
};

struct PhaseResult {
  std::uint64_t attempted = 0;
  /// kPaced: latency from due time; spans: on_scan duration. Seconds.
  std::vector<double> latency_s;
  /// kPaced: how late each send started.
  std::vector<double> lag_s;
  /// Latency samples per worker: `latency_s` holds worker 0's in send
  /// order, then worker 1's, and so on.
  std::vector<std::size_t> worker_samples;
  /// Seconds since the phase start at which each latency sample was due
  /// (kPaced) or started (spans), aligned with `latency_s`.
  std::vector<float> at_s;
  /// Wall seconds each worker took for each successive kBatchScans
  /// scans (all workers, unordered).
  std::vector<double> batch_s;
  std::vector<DeviceTally> devices;
  /// Locator unwinds + rejected sessions (SiteStats), summed.
  std::uint64_t failed = 0;
  std::uint64_t reader_stalls = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t errors = 0;
  std::vector<std::string> violations;
};

/// Replays `plan` through `server` (fresh per phase: its shards' scan
/// counters must sum to exactly the scans this phase attempted).
PhaseResult run_phase(const ReplayPlan& plan,
                      loctk::serve::LocationServer& server,
                      const PhaseConfig& config);

/// Single-threaded first pass, device by device, through a fresh server:
/// the reference fix digests every phase must reproduce.
std::vector<DeviceTally> reference_pass(const WorkloadSpec& w,
                                        const ReplayPlan& plan,
                                        const ServedSites& sites);

}  // namespace scanbench

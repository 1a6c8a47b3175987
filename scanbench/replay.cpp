#include "replay.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "base/metrics.hpp"
#include "traindb/generator.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/location_map.hpp"

namespace scanbench {

namespace core = loctk::core;
namespace serve = loctk::serve;

namespace {

core::ProbabilisticConfig served_config() {
  core::ProbabilisticConfig config;
  config.prune_top_k = 32;
  config.prune_strongest_aps = 4;
  return config;
}

std::string site_name(std::size_t s) { return "site-" + std::to_string(s); }

/// Spins until `due`: a paced send must start on time to the
/// microsecond, and a sleeping worker's vCPU can take milliseconds to be
/// scheduled again on a shared host.
void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

void tally(DeviceTally& t, const core::ServiceFix& fix,
           const loctk::testkit::TraceScan& ts, bool reference) {
  ++t.scans;
  const unsigned char flags =
      static_cast<unsigned char>((fix.valid ? 1 : 0) | (fix.degraded() ? 2 : 0));
  std::uint64_t h = fnv1a({reinterpret_cast<const char*>(&flags), 1}, t.digest);
  if (fix.valid) {
    char xy[2 * sizeof(double)];
    std::memcpy(xy, &fix.position.x, sizeof(double));
    std::memcpy(xy + sizeof(double), &fix.position.y, sizeof(double));
    h = fnv1a({xy, sizeof(xy)}, h);
  }
  const std::uint64_t place_len = fix.place.size();
  h = fnv1a({reinterpret_cast<const char*>(&place_len), sizeof(place_len)}, h);
  t.digest = fnv1a(fix.place, h);
  if (!reference) return;
  t.prefix.push_back(t.digest);
  if (fix.valid && !fix.degraded()) {
    ++t.valid;
    t.error_ft.push_back(loctk::geom::distance(fix.position, ts.truth));
  }
}

}  // namespace

std::shared_ptr<const core::Locator> make_served_locator(
    std::shared_ptr<const core::CompiledDatabase> compiled) {
  return std::make_shared<const core::ProbabilisticLocator>(std::move(compiled),
                                                            served_config());
}

std::shared_ptr<const core::Locator> make_dense_locator(
    std::shared_ptr<const core::CompiledDatabase> compiled) {
  core::ProbabilisticConfig config = served_config();
  config.prune_top_k = 0;
  return std::make_shared<const core::ProbabilisticLocator>(std::move(compiled),
                                                            config);
}

std::unique_ptr<serve::LocationServer> make_server(const WorkloadSpec& w) {
  serve::LocationServerConfig config;
  config.max_sites = w.sites;
  // Per-stripe headroom, as the server soak sizes it: a stripe fills on
  // its own, so aggregate load factor alone is not enough.
  config.sessions_per_site = std::max<std::size_t>(256, 4 * w.devices_per_site);
  return std::make_unique<serve::LocationServer>(config);
}

ServedSites cold_start(const Inputs& inputs, serve::LocationServer& server,
                       SetupTimes* times) {
  loctk::metrics::Counter& bytes = loctk::metrics::counter("ingest.bytes_read");
  const std::uint64_t bytes_before = bytes.value();
  SetupTimes t;
  ServedSites out;
  const Clock::time_point start = Clock::now();
  for (std::size_t s = 0; s < inputs.sites.size(); ++s) {
    const SiteInputs& site = inputs.sites[s];
    const Clock::time_point t_load = Clock::now();
    const loctk::wiscan::Collection collection =
        loctk::wiscan::load_collection(site.survey_dir);
    const loctk::wiscan::LocationMap map =
        loctk::wiscan::LocationMap::read(site.location_map);
    const Clock::time_point t_generate = Clock::now();
    loctk::traindb::GeneratorConfig gen;
    gen.site_name = site_name(s);
    loctk::traindb::TrainingDatabase db =
        loctk::traindb::generate_database(collection, map, gen);
    const Clock::time_point t_compile = Clock::now();
    auto compiled = core::CompiledDatabase::compile_owned(std::move(db));
    const Clock::time_point t_locator = Clock::now();
    auto locator = make_served_locator(compiled);
    const Clock::time_point t_add = Clock::now();
    server.add_site(site_name(s), locator);
    const Clock::time_point t_done = Clock::now();

    t.load_s += seconds_between(t_load, t_generate);
    t.generate_s += seconds_between(t_generate, t_compile);
    t.compile_s += seconds_between(t_compile, t_locator);
    t.locator_s += seconds_between(t_locator, t_add);
    t.add_site_s += seconds_between(t_add, t_done);
    out.compiled.push_back(std::move(compiled));
    out.locators.push_back(std::move(locator));
  }
  t.total_s = seconds_between(start, Clock::now());
  t.bytes_read = bytes.value() - bytes_before;
  if (times != nullptr) *times = t;
  return out;
}

void publish(const ServedSites& sites, serve::LocationServer& server) {
  for (std::size_t s = 0; s < sites.locators.size(); ++s) {
    server.add_site(site_name(s), sites.locators[s]);
  }
}

ReplayPlan make_plan(const Inputs& inputs, std::size_t workers) {
  ReplayPlan plan;
  plan.workers = std::max<std::size_t>(1, workers);
  plan.per_worker.resize(plan.workers);
  // Device slot g belongs to worker g % workers.
  std::vector<std::vector<std::vector<Step>>> owned(plan.workers);
  for (std::size_t s = 0; s < inputs.sites.size(); ++s) {
    const loctk::testkit::ScanTrace& trace = inputs.sites[s].trace;
    const auto by_device = trace.scans_by_device();
    for (std::size_t d = 0; d < by_device.size(); ++d) {
      const auto slot = static_cast<std::uint32_t>(plan.device_ids.size());
      plan.device_ids.push_back((static_cast<serve::DeviceId>(s + 1) << 32) |
                                (static_cast<serve::DeviceId>(d) + 1));
      std::vector<Step> steps;
      for (std::size_t idx : by_device[d]) {
        steps.push_back({static_cast<std::uint32_t>(s), slot, &trace.scans[idx]});
      }
      plan.pass_scans += steps.size();
      owned[slot % plan.workers].push_back(std::move(steps));
    }
  }
  for (std::size_t w = 0; w < plan.workers; ++w) {
    std::size_t longest = 0;
    for (const auto& dev : owned[w]) longest = std::max(longest, dev.size());
    for (std::size_t i = 0; i < longest; ++i) {
      for (const auto& dev : owned[w]) {
        if (i < dev.size()) plan.per_worker[w].push_back(dev[i]);
      }
    }
  }
  return plan;
}

PhaseResult run_phase(const ReplayPlan& plan, serve::LocationServer& server,
                      const PhaseConfig& config) {
  const std::size_t workers = plan.workers;
  const std::size_t sites = server.site_count();
  PhaseResult result;
  result.devices.resize(plan.device_ids.size());

  struct WorkerOut {
    std::uint64_t attempted = 0;
    std::vector<double> latency_s;
    std::vector<double> lag_s;
    std::vector<float> at_s;
    std::vector<double> batch_s;
    std::string error;
  };
  std::vector<WorkerOut> outs(workers);
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> workers_done{false};
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point t0;  // written before `go` is released

  const bool paced = config.pacing == Pacing::kPaced;
  const bool count_progress = static_cast<bool>(config.control);
  const auto phase_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config.seconds));
  const auto since_start = [&t0](Clock::time_point t) {
    return static_cast<float>(seconds_between(t0, t));
  };

  const auto worker = [&](std::size_t w) {
    WorkerOut& out = outs[w];
    const std::vector<Step>& steps = plan.per_worker[w];
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const Clock::time_point end = t0 + phase_length;
    const PacedSchedule schedule{t0, config.offered_per_s, workers};
    if (paced) {
      const auto expected = static_cast<std::size_t>(
          config.offered_per_s * config.seconds / static_cast<double>(workers));
      out.latency_s.reserve(expected + kBatchScans);
      out.lag_s.reserve(expected + kBatchScans);
      out.at_s.reserve(expected + kBatchScans);
    }
    try {
      std::uint64_t j = 0;
      std::uint64_t pass = 0;
      std::size_t i = 0;
      Clock::time_point batch_start = t0;
      while (!steps.empty()) {
        if (i == steps.size()) {
          i = 0;
          ++pass;
        }
        if (j > 0 && j % kBatchScans == 0) {
          // One clock read per batch: the saturate deadline and the
          // closed-loop rate both come from it.
          const Clock::time_point now = Clock::now();
          out.batch_s.push_back(seconds_between(batch_start, now));
          batch_start = now;
          if (count_progress) {
            progress.fetch_add(kBatchScans, std::memory_order_relaxed);
          }
          if (!paced && now >= end) break;
        }
        Clock::time_point due;
        if (paced) {
          due = schedule.due(w, j);
          if (due >= end) break;
          wait_until(due);
        }
        const Step& step = steps[i];
        const Clock::time_point started =
            paced || config.spans ? Clock::now() : Clock::time_point{};
        const core::ServiceFix fix = server.on_scan(
            step.site, plan.device_ids[step.device], step.scan->scan);
        if (paced) {
          out.latency_s.push_back(latency_from_due(due, Clock::now()));
          out.lag_s.push_back(seconds_between(due, started));
          out.at_s.push_back(since_start(due));
        } else if (config.spans) {
          out.latency_s.push_back(seconds_between(started, Clock::now()));
          out.at_s.push_back(since_start(started));
        }
        if (pass == 0) {
          tally(result.devices[step.device], fix, *step.scan, false);
        }
        ++j;
        ++i;
      }
      out.attempted = j;
      // Whole batches were counted at the top of the loop.
      if (count_progress) {
        progress.fetch_add(j % kBatchScans, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  };

  // Shard counters live in the process registry under the site name,
  // so they carry over from earlier servers: count this phase's deltas.
  std::vector<serve::SiteStats> before;
  for (serve::SiteId s = 0; s < sites; ++s) before.push_back(server.stats(s));

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker, w);
  std::thread control;
  if (config.control) {
    control = std::thread([&] { config.control(progress, workers_done); });
  }
  while (ready.load() < workers) std::this_thread::yield();
  t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  workers_done.store(true);
  if (control.joinable()) control.join();

  for (WorkerOut& out : outs) {
    result.attempted += out.attempted;
    result.latency_s.insert(result.latency_s.end(), out.latency_s.begin(),
                            out.latency_s.end());
    result.worker_samples.push_back(out.latency_s.size());
    result.lag_s.insert(result.lag_s.end(), out.lag_s.begin(), out.lag_s.end());
    result.at_s.insert(result.at_s.end(), out.at_s.begin(), out.at_s.end());
    result.batch_s.insert(result.batch_s.end(), out.batch_s.begin(),
                          out.batch_s.end());
    if (!out.error.empty()) {
      result.violations.push_back("worker threw: " + out.error);
    }
  }

  std::uint64_t shard_scans = 0;
  for (serve::SiteId s = 0; s < sites; ++s) {
    const serve::SiteStats st = server.stats(s);
    shard_scans += st.scans - before[s].scans;
    result.reader_stalls += st.reader_stalls - before[s].reader_stalls;
    result.sessions_rejected +=
        st.sessions_rejected - before[s].sessions_rejected;
    result.errors += st.errors - before[s].errors;
  }
  result.failed = result.errors + result.sessions_rejected;
  if (shard_scans != result.attempted) {
    result.violations.push_back(
        "per-shard SiteStats::scans sum to " + std::to_string(shard_scans) +
        ", scans attempted " + std::to_string(result.attempted));
  }
  if (result.reader_stalls != 0) {
    result.violations.push_back("reader stalls: " +
                                std::to_string(result.reader_stalls));
  }
  return result;
}

std::vector<DeviceTally> reference_pass(const WorkloadSpec& w,
                                        const ReplayPlan& plan,
                                        const ServedSites& sites) {
  const auto server = make_server(w);
  publish(sites, *server);
  std::vector<std::vector<const Step*>> by_device(plan.device_ids.size());
  for (const std::vector<Step>& steps : plan.per_worker) {
    for (const Step& step : steps) by_device[step.device].push_back(&step);
  }
  std::vector<DeviceTally> tallies(plan.device_ids.size());
  for (std::size_t d = 0; d < by_device.size(); ++d) {
    for (const Step* step : by_device[d]) {
      tally(tallies[d],
            server->on_scan(step->site, plan.device_ids[d], step->scan->scan),
            *step->scan, true);
    }
  }
  return tallies;
}

}  // namespace scanbench

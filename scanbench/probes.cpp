#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "base/metrics.hpp"
#include "core/observation.hpp"
#include "core/tracking.hpp"
#include "floorplan/fleet_compositor.hpp"
#include "serve/epoch.hpp"
#include "serve/session_table.hpp"
#include "testkit/fleet_frame.hpp"

namespace scanbench {

namespace core = loctk::core;
namespace serve = loctk::serve;

namespace {

/// Keeps probed results observable so the calls cannot be elided.
std::atomic<double> g_sink{0.0};

struct Window {
  std::size_t site = 0;
  std::vector<loctk::radio::ScanRecord> scans;
};

/// The trace cut into consecutive per-device windows of the service's
/// size, with non-finite samples dropped as the service drops them.
std::vector<Window> trace_windows(const Inputs& inputs, std::size_t size) {
  std::vector<Window> windows;
  for (std::size_t s = 0; s < inputs.sites.size(); ++s) {
    const loctk::testkit::ScanTrace& trace = inputs.sites[s].trace;
    for (const std::vector<std::size_t>& indices : trace.scans_by_device()) {
      Window window{s, {}};
      for (std::size_t idx : indices) {
        loctk::radio::ScanRecord scan = trace.scans[idx].scan;
        std::erase_if(scan.samples, [](const loctk::radio::ScanSample& x) {
          return !std::isfinite(x.rssi_dbm);
        });
        window.scans.push_back(std::move(scan));
        if (window.scans.size() == size) {
          windows.push_back(window);
          window.scans.clear();
        }
      }
    }
  }
  return windows;
}

template <class F>
void on_workers(std::size_t workers, F body) {
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(body, w);
  for (std::thread& t : threads) t.join();
}

/// Runs `batch` (kBatch calls) on every worker until `seconds` pass;
/// each batch contributes one per-call sample. A batch returns a value
/// derived from its results, folded into a per-worker sink (a shared one
/// would put a contended cache line inside the timed region).
template <class MakeBatch>
std::vector<double> batched_on_workers(std::size_t workers, double seconds,
                                       MakeBatch make_batch) {
  std::vector<std::vector<double>> per_worker(workers);
  on_workers(workers, [&](std::size_t w) {
    auto batch = make_batch(w);
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    double sink = 0.0;
    while (true) {
      const Clock::time_point t0 = Clock::now();
      if (t0 >= end) break;
      sink += batch();
      per_worker[w].push_back(seconds_between(t0, Clock::now()) /
                              static_cast<double>(kBatch));
    }
    g_sink.store(sink, std::memory_order_relaxed);
  });
  std::vector<double> all;
  for (const auto& v : per_worker) all.insert(all.end(), v.begin(), v.end());
  return all;
}

}  // namespace

StageSamples probe_stages(const Inputs& inputs, const ServedSites& sites,
                          double seconds) {
  StageSamples out;
  const std::vector<Window> windows =
      trace_windows(inputs, core::LocationServiceConfig{}.window_scans);
  out.windows = windows.size();
  if (windows.empty()) return out;
  std::vector<std::shared_ptr<const core::Locator>> dense;
  for (const auto& compiled : sites.compiled) {
    dense.push_back(make_dense_locator(compiled));
  }

  // Kalman input: each window's served estimate, in device order.
  std::vector<std::pair<loctk::geom::Vec2, double>> kalman_feed;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  double sink = 0.0;
  for (std::size_t round = 0; round == 0 || Clock::now() < end; ++round) {
    for (const Window& window : windows) {
      if (round > 0 && Clock::now() >= end) break;
      const core::CompiledDatabase& compiled = *sites.compiled[window.site];
      const Clock::time_point t0 = Clock::now();
      const core::Observation obs = core::Observation::from_scans(window.scans);
      const Clock::time_point t1 = Clock::now();
      const core::CompiledObservation q = compiled.compile_observation(obs);
      const Clock::time_point t2 = Clock::now();
      const auto served = sites.locators[window.site]->try_locate(obs);
      const Clock::time_point t3 = Clock::now();
      const auto exhaustive = dense[window.site]->try_locate(obs);
      const Clock::time_point t4 = Clock::now();
      out.window_obs_s.push_back(seconds_between(t0, t1));
      out.compile_obs_s.push_back(seconds_between(t1, t2));
      out.locate_s.push_back(seconds_between(t2, t3));
      out.locate_dense_s.push_back(seconds_between(t3, t4));
      sink += static_cast<double>(q.slots.size());
      if (served.ok() && exhaustive.ok()) {
        sink += served.value().position.x + exhaustive.value().score;
        if (round == 0) {
          kalman_feed.emplace_back(served.value().position,
                                   window.scans.back().timestamp_s);
        }
      }
    }
  }

  // Kalman: batches of kBatch consecutive updates through one tracker,
  // as one device's session would feed it.
  if (kalman_feed.size() >= kBatch) {
    core::KalmanTracker tracker;
    const std::size_t reps =
        std::max<std::size_t>(1, 20000 / (kalman_feed.size() / kBatch));
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t b = 0; b + kBatch <= kalman_feed.size(); b += kBatch) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t k = b; k < b + kBatch; ++k) {
          sink += tracker.update_at(kalman_feed[k].first, kalman_feed[k].second).x;
        }
        out.kalman_s.push_back(seconds_between(t0, Clock::now()) /
                               static_cast<double>(kBatch));
      }
    }
  }
  g_sink.store(sink, std::memory_order_relaxed);
  return out;
}

MicroSamples probe_micro(std::size_t workers, std::size_t devices,
                         double seconds) {
  MicroSamples out;
  const double each = seconds / 3.0;

  serve::EpochDomain domain;
  out.pin_s = batched_on_workers(workers, each, [&](std::size_t) {
    return [&domain] {
      std::uint64_t epochs = 0;
      for (std::size_t k = 0; k < kBatch; ++k) {
        serve::EpochDomain::ReadGuard guard(domain);
        epochs += guard.epoch();
      }
      return static_cast<double>(epochs);
    };
  });

  // Sized and filled like one shard holding the workload's fleet.
  const core::LocationServiceConfig service;
  serve::SessionTable table(std::max<std::size_t>(256, 4 * devices));
  for (std::size_t d = 0; d < devices; ++d) {
    table.find_or_create(static_cast<serve::DeviceId>(d + 1), service);
  }
  out.session_s = batched_on_workers(workers, each, [&](std::size_t w) {
    return [&table, &service, devices, next = w]() mutable {
      std::size_t found = 0;
      for (std::size_t k = 0; k < kBatch; ++k) {
        next = (next + 7) % devices;
        found += table.find_or_create(static_cast<serve::DeviceId>(next + 1),
                                      service) != nullptr;
      }
      return static_cast<double>(found);
    };
  });

  loctk::metrics::Counter counter;
  loctk::metrics::HistogramMetric histogram;
  out.metrics_s = batched_on_workers(workers, each, [&](std::size_t) {
    return [&counter, &histogram] {
      for (std::size_t k = 0; k < kBatch; ++k) {
        counter.increment();
        histogram.record(2e-6 + 1e-7 * static_cast<double>(k));
      }
      return 0.0;
    };
  });
  return out;
}

FrameSamples run_frames(const loctk::testkit::Scenario& scenario,
                        const loctk::testkit::ScanTrace& trace) {
  FrameSamples out;
  const loctk::testkit::FleetFrameBuilder builder(scenario);
  const loctk::floorplan::FleetCompositor compositor;
  loctk::metrics::Counter& tiles = loctk::metrics::counter("compose.tiles");
  const std::uint64_t tiles_before = tiles.value();
  const std::size_t ticks = builder.tick_count(trace);
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    const Clock::time_point t0 = Clock::now();
    const loctk::floorplan::FleetFrameSpec spec = builder.frame(trace, tick);
    const Clock::time_point t1 = Clock::now();
    const loctk::image::Raster frame = compositor.render(spec);
    const Clock::time_point t2 = Clock::now();
    out.spec_s.push_back(seconds_between(t0, t1));
    out.render_s.push_back(seconds_between(t1, t2));
    out.frame_s.push_back(seconds_between(t0, t2));
    if (tick % 8 == 0 && !(compositor.render_serial(spec) == frame)) {
      out.violations.push_back("frame " + std::to_string(tick) +
                               " differs from render_serial");
    }
  }
  out.tiles = tiles.value() - tiles_before;
  return out;
}

Republisher::Republisher(const WorkloadSpec& w, const Inputs& inputs,
                         const ServedSites& sites,
                         serve::LocationServer& server, bool traced)
    : w_(w), inputs_(inputs), server_(server), traced_(traced) {
  for (std::size_t s = 0; s < sites.compiled.size(); ++s) {
    if (traced_) {
      current_.push_back(sites.compiled[s]);
      intakes_.push_back(std::make_unique<loctk::lifecycle::SurveyIntake>());
      drift_.push_back(
          std::make_unique<loctk::lifecycle::DriftMonitor>(sites.compiled[s]));
    } else {
      // The factory is timed in both runs, so the untraced republish
      // still says how much of it is locator construction.
      auto factory = [this](std::shared_ptr<const core::CompiledDatabase> c) {
        const Clock::time_point t0 = Clock::now();
        auto locator = make_served_locator(std::move(c));
        samples_.locator_build_s.push_back(seconds_between(t0, Clock::now()));
        return locator;
      };
      janitors_.push_back(std::make_unique<loctk::lifecycle::LifecycleJanitor>(
          server_, static_cast<serve::SiteId>(s), sites.compiled[s], factory));
    }
  }
}

void Republisher::run(const std::atomic<std::uint64_t>& progress,
                      const std::atomic<bool>& workers_done) {
  const std::uint64_t every = w_.republish_every_scans;
  std::uint64_t wave = 0;
  while (true) {
    // Read `done` before `progress`: once the workers are done the
    // progress count is final, so no wave can be missed.
    const bool done = workers_done.load();
    if (progress.load() >= (wave + 1) * every) {
      for (std::size_t s = 0; s < inputs_.sites.size(); ++s) republish(s, wave);
      ++wave;
      continue;
    }
    if (done) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  samples_.waves = wave;
}

void Republisher::republish(std::size_t site, std::uint64_t wave) {
  const std::vector<loctk::lifecycle::SurveyDwell>& dwells =
      inputs_.sites[site].resurvey;
  const std::size_t first =
      static_cast<std::size_t>(wave % w_.resurvey_sets) * w_.resurvey_points;
  const Clock::time_point start = Clock::now();
  try {
    if (!traced_) {
      loctk::lifecycle::LifecycleJanitor& janitor = *janitors_[site];
      for (std::size_t k = first; k < first + w_.resurvey_points; ++k) {
        if (!janitor.submit_survey(dwells[k]).ok()) ++samples_.failed;
      }
      if (!janitor.tick().has_value()) ++samples_.failed;
    } else {
      // LifecycleJanitor::tick's public sequence, one span per call.
      loctk::lifecycle::SurveyIntake& intake = *intakes_[site];
      for (std::size_t k = first; k < first + w_.resurvey_points; ++k) {
        const Clock::time_point t0 = Clock::now();
        const bool accepted = intake.submit(dwells[k]).ok();
        samples_.intake_s.push_back(seconds_between(t0, Clock::now()));
        if (!accepted) ++samples_.failed;
      }
      const Clock::time_point t_tick = Clock::now();
      const core::DatabaseDelta delta = intake.drain();
      const Clock::time_point t_delta = Clock::now();
      auto next = current_[site]->delta_compile(delta);
      const Clock::time_point t_build = Clock::now();
      auto locator = make_served_locator(next);
      const Clock::time_point t_swap = Clock::now();
      server_.swap_site(static_cast<serve::SiteId>(site), std::move(locator));
      const Clock::time_point t_rebase = Clock::now();
      drift_[site]->rebase(next);
      const Clock::time_point t_done = Clock::now();
      current_[site] = std::move(next);
      samples_.delta_compile_s.push_back(seconds_between(t_delta, t_build));
      samples_.locator_build_s.push_back(seconds_between(t_build, t_swap));
      samples_.swap_s.push_back(seconds_between(t_swap, t_rebase));
      samples_.rebase_s.push_back(seconds_between(t_rebase, t_done));
      samples_.tick_s.push_back(seconds_between(t_tick, t_done));
    }
  } catch (const std::exception&) {
    ++samples_.failed;
  }
  samples_.republish_s.push_back(seconds_between(start, Clock::now()));
}

std::shared_ptr<const core::CompiledDatabase> Republisher::compiled(
    std::size_t s) const {
  return traced_ ? current_[s] : janitors_[s]->compiled();
}

}  // namespace scanbench

#include "serve/location_server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <stdexcept>

namespace loctk::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

metrics::Counter& total_scans_counter() {
  static metrics::Counter& c = metrics::counter("serve.scans");
  return c;
}
metrics::Counter& total_swaps_counter() {
  static metrics::Counter& c = metrics::counter("serve.swaps");
  return c;
}
metrics::Counter& unknown_site_counter() {
  static metrics::Counter& c = metrics::counter("serve.unknown_site");
  return c;
}

using core::ScanStage;

using StageHistograms =
    std::array<metrics::HistogramMetric*, core::ScanStageClock::kStages>;

/// serve.stage.<stage>.seconds, indexed by ScanStage.
const StageHistograms& stage_histograms() {
  static const StageHistograms h = {
      &metrics::histogram("serve.stage.pin.seconds"),
      &metrics::histogram("serve.stage.session.seconds"),
      &metrics::histogram("serve.stage.door.seconds"),
      &metrics::histogram("serve.stage.lookup.seconds"),
      &metrics::histogram("serve.stage.merge.seconds"),
      &metrics::histogram("serve.stage.locate.seconds"),
      &metrics::histogram("serve.stage.kalman.seconds"),
      &metrics::histogram("serve.stage.metrics.seconds")};
  return h;
}

core::ServiceFix degraded_fix(const char* reason) {
  core::ServiceFix fix;
  fix.valid = false;
  fix.degraded_reason = reason;
  return fix;
}

}  // namespace

LocationServer::LocationServer(LocationServerConfig config)
    : config_(config) {
  config_.max_sites = std::max<std::size_t>(1, config_.max_sites);
  sites_.resize(config_.max_sites);
}

LocationServer::~LocationServer() {
  // Contract: traffic has stopped, so every epoch domain can drain.
  const std::size_t n = site_count();
  for (std::size_t i = 0; i < n; ++i) {
    sites_[i]->epochs.quiesce();
  }
}

LocationServer::Shard* LocationServer::shard(SiteId site) const {
  if (site >= site_count_.load(std::memory_order_acquire)) return nullptr;
  return sites_[site].get();
}

LocationServer::Shard& LocationServer::checked_shard(SiteId site) const {
  Shard* s = shard(site);
  if (!s) throw std::invalid_argument("LocationServer: unknown site id");
  return *s;
}

SiteId LocationServer::add_site(
    std::string name, std::shared_ptr<const core::Locator> locator) {
  if (!locator) {
    throw std::invalid_argument("LocationServer: null locator");
  }
  std::lock_guard<std::mutex> lock(control_mutex_);
  for (const std::string& existing : names_) {
    if (existing == name) {
      throw std::invalid_argument("LocationServer: duplicate site '" +
                                  name + "'");
    }
  }
  const std::size_t index = site_count_.load(std::memory_order_relaxed);
  if (index >= config_.max_sites) {
    throw std::invalid_argument("LocationServer: max_sites reached");
  }

  auto shard = std::make_unique<Shard>(config_.reader_slots,
                                       config_.sessions_per_site);
  shard->name = name;
  const std::string prefix = "serve.shard." + name + ".";
  shard->scans_counter = &metrics::counter(prefix + "scans");
  shard->swaps_counter = &metrics::counter(prefix + "swaps");
  shard->rejected_counter = &metrics::counter(prefix + "sessions_rejected");
  shard->errors_counter = &metrics::counter(prefix + "errors");
  shard->generation_gauge = &metrics::gauge(prefix + "generation");
  shard->epoch_lag_gauge = &metrics::gauge(prefix + "epoch_lag");
  shard->sessions_gauge = &metrics::gauge(prefix + "sessions");
  shard->on_scan_hist = &metrics::histogram(prefix + "on_scan.seconds");
  shard->swap_hist = &metrics::histogram(prefix + "swap.seconds");

  auto snapshot = std::make_shared<const SiteSnapshot>(
      SiteSnapshot{std::move(locator), 1});
  shard->current.store(snapshot.get(), std::memory_order_seq_cst);
  shard->owner = std::move(snapshot);
  shard->generation.store(1, std::memory_order_relaxed);
  shard->generation_gauge->set(1.0);

  sites_[index] = std::move(shard);
  names_.push_back(std::move(name));
  // Publish the slot only after it is fully built; data-plane readers
  // acquire-load the count before indexing.
  site_count_.store(index + 1, std::memory_order_release);
  return static_cast<SiteId>(index);
}

std::uint64_t LocationServer::swap_site(
    SiteId site, std::shared_ptr<const core::Locator> locator) {
  if (!locator) {
    throw std::invalid_argument("LocationServer: null locator");
  }
  Shard& s = checked_shard(site);
  const Clock::time_point start = Clock::now();
  std::lock_guard<std::mutex> lock(s.swap_mutex);

  // Grace period before publishing: wait out every reader still pinned
  // behind the previous swap. This bounds the retire list to one
  // generation and makes it structurally impossible for a reader to be
  // pinned across two swaps (the zero-stall gate) — the cost lands
  // entirely on the writer; readers never wait.
  s.epochs.await_readers();

  const std::uint64_t generation =
      s.generation.fetch_add(1, std::memory_order_relaxed) + 1;
  auto snapshot = std::make_shared<const SiteSnapshot>(
      SiteSnapshot{std::move(locator), generation});

  // Publish first, then retire: a reader that pins after the epoch
  // bump is guaranteed (see epoch.hpp) to observe this store.
  s.current.store(snapshot.get(), std::memory_order_seq_cst);
  std::shared_ptr<const SiteSnapshot> old = std::move(s.owner);
  s.owner = std::move(snapshot);
  s.epochs.retire(std::move(old));

  const std::uint64_t min_pin = s.epochs.min_active_epoch();
  const std::uint64_t epoch = s.epochs.current_epoch();
  s.epoch_lag_gauge->set(
      min_pin == 0 ? 0.0 : static_cast<double>(epoch - min_pin));
  s.generation_gauge->set(static_cast<double>(generation));
  s.swaps_counter->increment();
  total_swaps_counter().increment();
  s.swap_hist->record(seconds_since(start));
  return generation;
}

std::optional<SiteId> LocationServer::find_site(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<SiteId>(i);
  }
  return std::nullopt;
}

SiteStats LocationServer::stats(SiteId site) const {
  Shard& s = checked_shard(site);
  SiteStats stats;
  stats.name = s.name;
  stats.generation = s.generation.load(std::memory_order_relaxed);
  stats.epoch = s.epochs.current_epoch();
  stats.scans = s.scans_counter->value();
  stats.sessions = s.sessions.size();
  stats.retired_snapshots = s.epochs.retired_count();
  stats.reader_stalls = s.epochs.reader_stalls();
  stats.sessions_rejected = s.rejected_counter->value();
  stats.errors = s.errors_counter->value();
  return stats;
}

std::size_t LocationServer::reclaim(SiteId site) {
  Shard& s = checked_shard(site);
  std::lock_guard<std::mutex> lock(s.swap_mutex);
  return s.epochs.try_reclaim();
}

core::ServiceFix LocationServer::on_scan(SiteId site, DeviceId device,
                                         const radio::ScanRecord& scan) {
  Shard* s = shard(site);
  if (!s) {
    unknown_site_counter().increment();
    return degraded_fix("[degenerate] serve: unknown site");
  }
  // One scan in metrics::kSampleEvery per thread is timed stage by
  // stage; every other scan reads no clock and records no histogram.
  thread_local metrics::SampleCountdown countdown;
  std::optional<core::ScanStageClock> sampled;
  core::ScanStageClock* const stages =
      countdown.tick() ? &sampled.emplace() : nullptr;

  // Wait-free snapshot pin: one CAS on a striped epoch slot, then a
  // plain pointer load. No lock, no refcount on a shared line.
  EpochDomain::ReadGuard guard(s->epochs);
  const SiteSnapshot* snap = s->current.load(std::memory_order_seq_cst);
  if (stages) stages->end(ScanStage::kPin);

  bool created = false;
  Session* session =
      s->sessions.find_or_create(device, config_.service, &created);
  if (!session) {
    s->rejected_counter->increment();
    return degraded_fix("[degenerate] serve: session table full");
  }
  if (created) {
    // Sessions are never removed, so the high-water mark is the count.
    s->sessions_gauge->raise_to(static_cast<double>(s->sessions.size()));
  }

  // Serializes this device with itself only; concurrent devices hold
  // different sessions and never touch this flag.
  session->lock();
  if (stages) stages->end(ScanStage::kSession);
  core::ServiceFix fix;
  try {
    fix = session->service.on_scan(*snap->locator, scan, stages);
    session->unlock();
  } catch (const std::exception& e) {
    // The data plane must not unwind on hostile input (docs/SERVING.md):
    // a throwing locator degrades this one scan and is counted in
    // serve.shard.<site>.errors; the session (window, Kalman track)
    // survives for the next scan.
    session->unlock();
    s->errors_counter->increment();
    fix = degraded_fix("[internal] serve: locator unwound on scan");
    fix.degraded_reason += ": ";
    fix.degraded_reason += e.what();
  } catch (...) {
    session->unlock();
    s->errors_counter->increment();
    fix = degraded_fix("[internal] serve: locator unwound on scan");
  }
  if (stages) stages->end(ScanStage::kKalman);

  s->scans_counter->increment();
  total_scans_counter().increment();
  if (stages) {
    stages->end(ScanStage::kMetrics);
    const auto& hists = stage_histograms();
    for (std::size_t i = 0; i < hists.size(); ++i) {
      hists[i]->record(stages->seconds(static_cast<ScanStage>(i)));
    }
    s->on_scan_hist->record(stages->total_seconds());
  }
  return fix;
}

Result<core::LocationEstimate> LocationServer::try_locate(
    SiteId site, const core::Observation& obs) const {
  Shard* s = shard(site);
  if (!s) {
    return Error(ErrorCode::kDegenerate, "serve: unknown site");
  }
  EpochDomain::ReadGuard guard(s->epochs);
  const SiteSnapshot* snap = s->current.load(std::memory_order_seq_cst);
  return snap->locator->try_locate(obs);
}

std::vector<core::LocationEstimate> LocationServer::locate_batch(
    SiteId site, std::span<const core::Observation> obs,
    concurrency::ThreadPool* pool) const {
  Shard& s = checked_shard(site);
  // The guard pins for the whole batch: even if a swap lands while
  // pool workers are mid-chunk, the pinned snapshot stays alive and
  // every element is scored by one generation.
  EpochDomain::ReadGuard guard(s.epochs);
  const SiteSnapshot* snap = s.current.load(std::memory_order_seq_cst);
  return snap->locator->locate_batch(obs, pool);
}

std::uint64_t LocationServer::generation(SiteId site) const {
  Shard* s = shard(site);
  return s ? s->generation.load(std::memory_order_relaxed) : 0;
}

}  // namespace loctk::serve

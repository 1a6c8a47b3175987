#include "core/location_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "base/metrics.hpp"

namespace loctk::core {

namespace {

/// WindowScan::slots entry for a BSSID the universe does not hold.
constexpr std::uint32_t kOutsideUniverse =
    std::numeric_limits<std::uint32_t>::max();

/// Per-thread fold state, reused across scans and sessions so a fold
/// allocates nothing once warm. Between folds `query`'s dense vectors
/// are zero outside `query.slots` and `cursor` is all zero; `clean` is
/// false only while a fold is in flight, so a fold that unwound is
/// repaired by the next one instead of leaking stale cells.
struct FoldScratch {
  CompiledObservation query;
  /// Per universe slot: reading count, then run cursor, during a fold.
  std::vector<std::uint32_t> cursor;
  /// Readings of BSSIDs outside the universe: (BSSID, window order,
  /// dBm).
  std::vector<std::tuple<std::string_view, std::uint32_t, double>> unknown;
  bool clean = true;
};

FoldScratch& fold_scratch() {
  thread_local FoldScratch scratch;
  return scratch;
}

metrics::Counter& scans_counter() {
  static metrics::Counter& c = metrics::counter("service.scans");
  return c;
}
metrics::Counter& rejected_samples_counter() {
  static metrics::Counter& c =
      metrics::counter("service.rejected_samples");
  return c;
}
metrics::Counter& degraded_fixes_counter() {
  static metrics::Counter& c = metrics::counter("service.degraded_fixes");
  return c;
}
metrics::Gauge& innovation_gauge() {
  static metrics::Gauge& g =
      metrics::gauge("service.kalman.innovation_ft");
  return g;
}

}  // namespace

LocationService::LocationService(LocationServiceConfig config)
    : locator_(nullptr), config_(config), kalman_(config.kalman) {
  config_.window_scans = std::max<std::size_t>(1, config_.window_scans);
  config_.min_scans =
      std::clamp<std::size_t>(config_.min_scans, 1, config_.window_scans);
  config_.place_debounce = std::max(1, config_.place_debounce);
}

LocationService::LocationService(const Locator& locator,
                                 LocationServiceConfig config)
    : LocationService(config) {
  locator_ = &locator;
}

LocationService::LocationService(std::shared_ptr<const Locator> locator,
                                 LocationServiceConfig config)
    : LocationService(*locator, config) {
  owned_locator_ = std::move(locator);
}

const Locator& LocationService::bound_locator() const {
  if (!locator_) {
    throw std::logic_error(
        "LocationService: unbound service needs the "
        "on_scan(locator, scan) form");
  }
  return *locator_;
}

std::vector<LocationEstimate> LocationService::locate_batch(
    std::span<const Observation> observations,
    concurrency::ThreadPool* pool) const {
  return bound_locator().locate_batch(observations, pool);
}

std::vector<ServiceFix> LocationService::replay(
    std::span<const radio::ScanRecord> scans) {
  std::vector<ServiceFix> fixes;
  fixes.reserve(scans.size());
  for (const radio::ScanRecord& scan : scans) {
    fixes.push_back(on_scan(scan));
  }
  return fixes;
}

Result<LocationEstimate> LocationService::try_locate(
    const Observation& obs) const {
  return bound_locator().try_locate(obs);
}

void LocationService::reset() {
  window_.clear();
  oldest_ = 0;
  kalman_.reset();
  fix_ = {};
  candidate_place_.clear();
  candidate_streak_ = 0;
  announced_place_.clear();
}

ServiceFix LocationService::on_scan(const radio::ScanRecord& scan) {
  return on_scan(bound_locator(), scan);
}

std::string_view LocationService::WindowScan::bssid(std::size_t k) const {
  const std::size_t begin = k == 0 ? 0 : bssid_ends[k - 1];
  return std::string_view(bssids).substr(begin, bssid_ends[k] - begin);
}

void LocationService::WindowScan::lower(const CompiledDatabase& db) {
  if (lowered_for == db.id()) return;
  slots.resize(size());
  for (std::size_t k = 0; k < size(); ++k) {
    slots[k] = db.slot_of(bssid(k)).value_or(kOutsideUniverse);
  }
  lowered_for = db.id();
}

void LocationService::push_scan(const radio::ScanRecord& scan) {
  WindowScan* entry;
  if (window_.size() < config_.window_scans) {
    entry = &window_.emplace_back();
  } else {
    entry = &window_[oldest_];
    oldest_ = oldest_ + 1 < window_.size() ? oldest_ + 1 : 0;
  }
  entry->bssids.clear();
  entry->bssid_ends.clear();
  entry->rssi_dbm.clear();
  entry->lowered_for = 0;
  // A NIC driver glitch or hostile replay can hand us inf/nan dBm;
  // once inside the window it would poison every mean the locator
  // sees until the window drains. Drop such samples at the door.
  std::size_t rejected = 0;
  for (const radio::ScanSample& s : scan.samples) {
    if (!std::isfinite(s.rssi_dbm)) {
      ++rejected;
      continue;
    }
    entry->bssids += s.bssid;
    entry->bssid_ends.push_back(entry->bssids.size());
    entry->rssi_dbm.push_back(s.rssi_dbm);
  }
  if (rejected > 0) {
    rejected_samples_ += rejected;
    rejected_samples_counter().add(rejected);
  }
}

const CompiledObservation& LocationService::fold_window(
    const CompiledDatabase& db) {
  FoldScratch& f = fold_scratch();
  CompiledObservation& q = f.query;
  const std::size_t stride = db.row_stride();
  if (f.clean && q.mean_dbm.size() == stride) {
    for (const std::uint32_t slot : q.slots) {
      q.mean_dbm[slot] = 0.0;
      q.present[slot] = 0.0;
    }
  } else {
    q.mean_dbm.assign(stride, 0.0);
    q.present.assign(stride, 0.0);
  }
  if (!f.clean) std::fill(f.cursor.begin(), f.cursor.end(), 0u);
  if (f.cursor.size() < db.universe_size()) {
    f.cursor.resize(db.universe_size(), 0u);
  }
  f.clean = false;
  q.slots.clear();
  q.sample_ends.clear();
  f.unknown.clear();

  // Pass 1: lower scans the window has not yet seen against `db` (new
  // scans, or every scan once after a swap), count each slot's
  // readings, and set aside readings outside the universe.
  std::uint32_t order = 0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    WindowScan& scan = window_[ring_index(i)];
    scan.lower(db);
    for (std::size_t k = 0; k < scan.size(); ++k, ++order) {
      const std::uint32_t slot = scan.slots[k];
      if (slot == kOutsideUniverse) {
        f.unknown.emplace_back(scan.bssid(k), order, scan.rssi_dbm[k]);
      } else if (f.cursor[slot]++ == 0) {
        q.slots.push_back(slot);
      }
    }
  }
  std::sort(q.slots.begin(), q.slots.end());
  std::uint32_t total = 0;
  for (const std::uint32_t slot : q.slots) {
    const std::uint32_t n = f.cursor[slot];
    f.cursor[slot] = total;  // now the start of the slot's run
    total += n;
    q.sample_ends.push_back(total);
  }

  // Pass 2: scatter the readings into their slot runs, oldest scan
  // first and in sample order within a scan — the order from_scans
  // appends them in.
  q.samples.resize(total);
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const WindowScan& scan = window_[ring_index(i)];
    for (std::size_t k = 0; k < scan.size(); ++k) {
      const std::uint32_t slot = scan.slots[k];
      if (slot != kOutsideUniverse) {
        q.samples[f.cursor[slot]++] = scan.rssi_dbm[k];
      }
    }
  }

  // Means: each run summed from 0.0 in that order, then divided by its
  // count, exactly as from_scans computes them — so every mean, and
  // hence every fix, is bit-identical to the Observation path.
  q.finite = true;
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < q.slots.size(); ++i) {
    const std::uint32_t end = q.sample_ends[i];
    double sum = 0.0;
    for (std::uint32_t r = begin; r < end; ++r) sum += q.samples[r];
    const double mean = sum / static_cast<double>(end - begin);
    const std::uint32_t slot = q.slots[i];
    q.mean_dbm[slot] = mean;
    q.present[slot] = 1.0;
    if (!std::isfinite(mean)) q.finite = false;
    f.cursor[slot] = 0;
    begin = end;
  }

  // BSSIDs outside the universe: one AP per distinct string, its mean
  // summed in window order, so an overflowing mean is caught here too.
  std::sort(f.unknown.begin(), f.unknown.end());
  q.outside_universe = 0;
  for (std::size_t a = 0; a < f.unknown.size();) {
    std::size_t b = a;
    double sum = 0.0;
    for (; b < f.unknown.size() &&
           std::get<0>(f.unknown[b]) == std::get<0>(f.unknown[a]);
         ++b) {
      sum += std::get<2>(f.unknown[b]);
    }
    if (!std::isfinite(sum / static_cast<double>(b - a))) q.finite = false;
    ++q.outside_universe;
    a = b;
  }
  q.total_aps = q.slots.size() + static_cast<std::size_t>(q.outside_universe);
  f.clean = true;
  return q;
}

std::vector<radio::ScanRecord> LocationService::window_records() const {
  std::vector<radio::ScanRecord> scans(window_.size());
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const WindowScan& scan = window_[ring_index(i)];
    scans[i].samples.reserve(scan.size());
    for (std::size_t k = 0; k < scan.size(); ++k) {
      scans[i].samples.push_back(
          {std::string(scan.bssid(k)), scan.rssi_dbm[k], 0});
    }
  }
  return scans;
}

Result<LocationEstimate> LocationService::locate_window(
    const Locator& locator) {
  if (const CompiledDatabase* db = locator.compiled_database()) {
    return locator.try_locate(fold_window(*db));
  }
  return locator.try_locate(Observation::from_scans(window_records()));
}

ServiceFix LocationService::on_scan(const Locator& locator,
                                    const radio::ScanRecord& scan) {
  scans_counter().increment();
  ++scans_seen_;
  push_scan(scan);
  fix_.window_fill = window_.size();
  fix_.degraded_reason.clear();

  if (window_.size() < config_.min_scans) {
    fix_.valid = false;
    return fix_;
  }

  const Result<LocationEstimate> result = locate_window(locator);
  const LocationEstimate est =
      result.ok() ? result.value() : LocationEstimate{};

  if (est.valid) {
    fix_.valid = true;
    if (config_.kalman_smoothing) {
      // Step the filter by the real inter-scan interval; a missing or
      // rewound timestamp falls back to the configured dt inside the
      // tracker.
      fix_.position = kalman_.update_at(est.position, scan.timestamp_s);
      innovation_gauge().set(kalman_.last_innovation_ft());
    } else {
      fix_.position = est.position;
    }
  } else if (config_.kalman_smoothing && kalman_.initialized()) {
    // Coast through a bad window, reporting why the fix is degraded.
    fix_.valid = true;
    fix_.position = kalman_.predict_at(scan.timestamp_s);
    fix_.degraded_reason = result.error().to_string();
    degraded_fixes_counter().increment();
  } else {
    fix_.valid = false;
    fix_.degraded_reason = result.error().to_string();
    return fix_;
  }

  // Debounced place resolution.
  const std::string& place = est.location_name;
  if (!place.empty()) {
    if (place == candidate_place_) {
      ++candidate_streak_;
    } else {
      candidate_place_ = place;
      candidate_streak_ = 1;
    }
    if (candidate_streak_ >= config_.place_debounce &&
        candidate_place_ != announced_place_) {
      const std::string from = announced_place_;
      announced_place_ = candidate_place_;
      fix_.place = announced_place_;
      for (const PlaceChangeCallback& cb : callbacks_) {
        cb(from, announced_place_);
      }
    }
  }
  fix_.place = announced_place_;
  return fix_;
}

}  // namespace loctk::core

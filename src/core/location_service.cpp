#include "core/location_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "base/metrics.hpp"

namespace loctk::core {

namespace {

/// Reading::slot beyond every universe: "no slot yet" in the merge.
constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

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

/// Gives a buffer's memory back once its capacity exceeds four times
/// `need` (plus a few elements, so small scans never churn).
template <class Buffer>
void give_back_slack(Buffer& b, std::size_t need) {
  if (b.capacity() > 4 * need + 64) b.shrink_to_fit();
}
/// give_back_slack against what the buffer holds.
template <class Buffer>
void give_back_slack(Buffer& b) {
  give_back_slack(b, b.size());
}

/// Folds per period of FoldScratch's peak (see there).
constexpr std::uint32_t kPeakFolds = 16;

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

const Locator& LocationService::bound_locator() const {
  if (!locator_) {
    throw std::logic_error(
        "LocationService: unbound service needs the "
        "on_scan(locator, scan) form");
  }
  return *locator_;
}

void LocationService::reset() {
  window_.clear();
  oldest_ = 0;
  run_.clear();
  unknown_.clear();
  run_for_ = 0;
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

/// Per-thread fold state, reused across scans and sessions so a fold
/// allocates nothing once warm. Between folds `query`'s dense vectors
/// are zero outside `query.slots`; `clean` is false only while a fold
/// is in flight, so a fold that unwound is repaired by the next one
/// instead of leaking stale cells.
///
/// Each fold ends by giving back what a per-reading buffer holds beyond
/// four times `need`: the most readings any fold on the thread held over
/// the last kPeakFolds to 2·kPeakFolds folds. So one large window does
/// not pin its size for the thread's life, while sessions with windows
/// of different sizes sharing the thread do not make the buffers
/// shrink and regrow: measured against each fold's own size, the
/// scratch gave back 66,658 times in a 30 s scanbench campus_fleet run.
/// The dense vectors stay one universe wide.
struct LocationService::FoldScratch {
  CompiledObservation query;
  /// The merge's output, copied back into the session's run_ once the
  /// pass ends: each session's run then holds only the capacity its
  /// own window needs.
  std::vector<Reading> merged;
  /// The merging scan's in-universe readings as slot << 32 | sample
  /// index: sorted, that is slot order and sample order within a slot.
  std::vector<std::uint64_t> fresh;
  /// Readings of BSSIDs outside the universe: (BSSID, window order,
  /// dBm).
  std::vector<std::tuple<std::string_view, std::uint32_t, double>> unknown;
  /// Readings held in and out of the universe, the most of any fold in
  /// the current and the previous period, and folds into the current.
  std::size_t peak = 0;
  std::size_t last_peak = 0;
  std::uint32_t folds = 0;
  bool clean = true;
};

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
  // A NIC driver glitch or hostile replay can hand us inf/nan dBm;
  // once inside the window it would poison every mean the locator
  // sees until the window drains. Drop such samples at the door, and
  // every sample of an over-cap scan.
  const bool over_cap =
      scan.samples.size() > kMaxScanSamples ||
      std::any_of(scan.samples.begin(), scan.samples.end(),
                  [](const radio::ScanSample& s) {
                    return s.bssid.size() > kMaxBssidBytes;
                  });
  std::size_t rejected = 0;
  if (over_cap) {
    rejected = scan.samples.size();
  } else {
    for (const radio::ScanSample& s : scan.samples) {
      if (!std::isfinite(s.rssi_dbm)) {
        ++rejected;
        continue;
      }
      entry->bssids += s.bssid;
      entry->bssid_ends.push_back(entry->bssids.size());
      entry->rssi_dbm.push_back(s.rssi_dbm);
    }
  }
  give_back_slack(entry->bssids);
  give_back_slack(entry->bssid_ends);
  give_back_slack(entry->rssi_dbm);
  if (rejected > 0) {
    rejected_samples_ += rejected;
    rejected_samples_counter().add(rejected);
  }
}

void LocationService::lookup_entry(const CompiledDatabase& db,
                                   std::size_t entry, FoldScratch& f) {
  const WindowScan& scan = window_[entry];
  const auto e = static_cast<std::uint32_t>(entry);

  // Look up only this entry's samples. It is the newest entry merged
  // so far, so its readings outside the universe go behind the others
  // once its previous ones have left.
  std::erase_if(unknown_, [e](const auto& u) { return u.first == e; });
  f.fresh.clear();
  for (std::size_t k = 0; k < scan.size(); ++k) {
    if (const auto slot = db.slot_of(scan.bssid(k))) {
      f.fresh.push_back(std::uint64_t{*slot} << 32 | k);
    } else {
      unknown_.emplace_back(e, static_cast<std::uint32_t>(k));
    }
  }
  // Scans sorted by BSSID come out sorted by slot, since the universe
  // is sorted too; only other scans pay the sort.
  if (!std::is_sorted(f.fresh.begin(), f.fresh.end())) {
    std::sort(f.fresh.begin(), f.fresh.end());
  }
}

void LocationService::merge_entry(std::size_t entry, FoldScratch& f,
                                  CompiledObservation* q) {
  const WindowScan& scan = window_[entry];
  const auto e = static_cast<std::uint32_t>(entry);

  f.merged.resize(run_.size() + f.fresh.size());
  Reading* out = f.merged.data();
  const Reading* a = run_.data();
  const Reading* const a_end = a + run_.size();
  const std::uint64_t* b = f.fresh.data();
  const std::uint64_t* const b_end = b + f.fresh.size();
  double* samples = nullptr;
  if (q != nullptr) {
    q->samples.resize(f.merged.size());
    samples = q->samples.data();
  }
  // One pass over the run: drop the entry's previous readings, merge
  // the new ones in behind the older readings of their slot, and, for
  // a query, sum each slot's readings from 0.0 oldest first and divide
  // by their count — exactly as from_scans computes a mean, so every
  // mean, and hence every fix, is bit-identical to the Observation
  // path.
  std::uint32_t n = 0;      // readings emitted
  std::uint32_t begin = 0;  // where the current slot's readings start
  std::uint32_t current = kNoSlot;
  double sum = 0.0;
  const auto close_slot = [&] {
    const double mean = sum / static_cast<double>(n - begin);
    q->slots.push_back(current);
    q->sample_ends.push_back(n);
    q->mean_dbm[current] = mean;
    q->present[current] = 1.0;
    if (!std::isfinite(mean)) q->finite = false;
    begin = n;
  };
  for (;;) {
    Reading r;
    if (a != a_end && (b == b_end || a->slot <= (*b >> 32))) {
      r = *a++;
      if (r.entry == e) continue;
    } else if (b != b_end) {
      r = {static_cast<std::uint32_t>(*b >> 32), e,
           scan.rssi_dbm[*b & 0xFFFFFFFFu]};
      ++b;
    } else {
      break;
    }
    *out++ = r;
    if (q == nullptr) continue;
    if (r.slot != current) {
      if (current != kNoSlot) close_slot();
      current = r.slot;
      sum = 0.0;
    }
    sum += r.dbm;
    samples[n++] = r.dbm;
  }
  if (q != nullptr) {
    if (current != kNoSlot) close_slot();
    q->samples.resize(n);
  }
  run_.assign(f.merged.data(), out);
}

const CompiledObservation& LocationService::fold_window(
    const CompiledDatabase& db, std::uint64_t run_for,
    ScanStageClock* stages) {
  thread_local FoldScratch f;

  // The run holds every older entry already when it is current for
  // `db`; otherwise (a swap, reset(), a scan no fold saw) rebuild it
  // from the ring's raw samples, oldest entry first.
  const std::size_t newest = window_.size() - 1;
  if (run_for != db.id()) {
    run_.clear();
    unknown_.clear();
    for (std::size_t i = 0; i < newest; ++i) {
      lookup_entry(db, ring_index(i), f);
      merge_entry(ring_index(i), f, nullptr);
    }
  }
  lookup_entry(db, ring_index(newest), f);
  if (stages) stages->end(ScanStage::kLookup);

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
  f.clean = false;
  q.slots.clear();
  q.sample_ends.clear();
  q.finite = true;
  merge_entry(ring_index(newest), f, &q);

  // BSSIDs outside the universe: one AP per distinct string, its mean
  // summed in window order, so an overflowing mean is caught here too.
  f.unknown.clear();
  for (std::size_t i = 0; i < unknown_.size(); ++i) {
    const auto [u, k] = unknown_[i];
    f.unknown.emplace_back(window_[u].bssid(k), static_cast<std::uint32_t>(i),
                           window_[u].rssi_dbm[k]);
  }
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
  give_back_slack(run_);
  give_back_slack(unknown_);
  // merged holds every in-universe reading the query does and more.
  f.peak = std::max(f.peak, f.merged.size() + f.unknown.size());
  if (++f.folds == kPeakFolds) {
    f.last_peak = std::exchange(f.peak, 0);
    f.folds = 0;
  }
  const std::size_t need = std::max(f.peak, f.last_peak);
  give_back_slack(f.merged, need);
  give_back_slack(f.fresh, need);
  give_back_slack(f.unknown, need);
  give_back_slack(q.samples, need);
  give_back_slack(q.slots, need);
  give_back_slack(q.sample_ends, need);
  f.clean = true;
  run_for_ = db.id();
  if (stages) stages->end(ScanStage::kMerge);
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
    const Locator& locator, std::uint64_t run_for, ScanStageClock* stages) {
  const bool timed = stages != nullptr;
  if (const CompiledDatabase* db = locator.compiled_database()) {
    return locator.try_locate(fold_window(*db, run_for, stages), timed);
  }
  return locator.try_locate(Observation::from_scans(window_records()), timed);
}

ServiceFix LocationService::on_scan(const Locator& locator,
                                    const radio::ScanRecord& scan) {
  thread_local metrics::SampleCountdown countdown;
  if (!countdown.tick()) return on_scan(locator, scan, nullptr);
  ScanStageClock stages;
  return on_scan(locator, scan, &stages);
}

ServiceFix LocationService::on_scan(const Locator& locator,
                                    const radio::ScanRecord& scan,
                                    ScanStageClock* stages) {
  scans_counter().increment();
  ++scans_seen_;
  // The run stays stale unless this scan's fold completes.
  const std::uint64_t run_for = std::exchange(run_for_, 0);
  push_scan(scan);
  fix_.window_fill = window_.size();
  fix_.degraded_reason.clear();
  if (stages) stages->end(ScanStage::kDoor);

  if (window_.size() < config_.min_scans) {
    fix_.valid = false;
    return fix_;
  }

  const Result<LocationEstimate> result =
      locate_window(locator, run_for, stages);
  if (stages) stages->end(ScanStage::kLocate);
  const LocationEstimate est =
      result.ok() ? result.value() : LocationEstimate{};

  if (est.valid) {
    fix_.valid = true;
    if (config_.kalman_smoothing) {
      // Step the filter by the real inter-scan interval; a missing or
      // rewound timestamp falls back to the configured dt inside the
      // tracker.
      fix_.position = kalman_.update_at(est.position, scan.timestamp_s);
      if (stages) innovation_gauge().set(kalman_.last_innovation_ft());
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

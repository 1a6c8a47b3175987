#pragma once

/// \file location_service.hpp
/// The live location service: the paper's §6 item 4 ("implement the
/// new location service, and use the service in our other research
/// projects related to pervasive computing").
///
/// Applications do not batch 90 scans and call locate() — they feed
/// scans as the NIC produces them and ask "where is the client *now*,
/// and which named place is that?" at any moment. `LocationService`
/// owns that loop: a sliding window of recent scans becomes the
/// current observation, a snapshot locator scores it, an optional
/// Kalman layer smooths the track, and subscribers get callbacks when
/// the resolved *place* changes (the paper's intro scenario: forward
/// the incoming call to the recipient's current room).
///
/// The window works in slot space (docs/ALGORITHMS.md, "Scan path in
/// slot space"): a ring of the last `window_scans` scans keeps the raw
/// samples, and beside it one run of the window's readings lowered to
/// the universe slots of the locator's compiled database, sorted by
/// (slot, age). Each scan looks up only its own samples and merges them
/// into the run in one pass that also emits the CompiledObservation —
/// the same per-AP means Observation::from_scans computes, bit for bit,
/// with no Observation built. Locators without a compiled database get
/// an Observation built from the ring.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/metrics.hpp"
#include "core/locator.hpp"
#include "core/tracking.hpp"
#include "radio/scanner.hpp"

namespace loctk::core {

/// The stages of one served scan, in call order; they partition
/// `serve::LocationServer::on_scan` (`serve.stage.<stage>.seconds`;
/// docs/SERVING.md, "What on_scan times"). The server ends the pin,
/// session (lookup and lock), Kalman and metrics stages;
/// LocationService ends the door (`push_scan`), lookup (the newest
/// scan's BSSID→slot lookups, plus the run's rebuild after a swap),
/// merge (the rest of the fold) and locate stages. The Kalman stage
/// also holds the place debounce and the fix copy.
enum class ScanStage {
  kPin,
  kSession,
  kDoor,
  kLookup,
  kMerge,
  kLocate,
  kKalman,
  kMetrics,
  kCount
};
using ScanStageClock = metrics::StageClock<ScanStage>;

struct LocationServiceConfig {
  /// Scans kept in the sliding window (the working-phase dwell; the
  /// paper used ~90 for static tests, live tracking wants far less).
  std::size_t window_scans = 8;
  /// Minimum scans before the service reports anything.
  std::size_t min_scans = 2;
  /// Smooth the position stream with a constant-velocity Kalman
  /// filter.
  bool kalman_smoothing = true;
  KalmanConfig kalman;
  /// A place change is announced only after the new place has been
  /// resolved this many consecutive updates (debounce against cell
  /// flapping at room boundaries).
  int place_debounce = 2;
};

/// Current service output.
struct ServiceFix {
  bool valid = false;
  geom::Vec2 position;
  /// Resolved named place (training-point / location-map name).
  std::string place;
  /// Scans currently in the window.
  std::size_t window_fill = 0;
  /// Non-empty when the fix is running degraded: the locator had no
  /// answer for the current window and the position (if valid) is a
  /// Kalman coast rather than a fresh measurement. The text is the
  /// structured `loctk::Error` behind the degradation.
  std::string degraded_reason;

  bool degraded() const { return !degraded_reason.empty(); }
};

/// Stateful per-client localization session.
class LocationService {
 public:
  /// Hard caps on one scan, so a hostile or broken client cannot make
  /// a session hold memory out of proportion to real scans. A real NIC
  /// scan holds at most a few hundred APs (the 1020-AP campus is the
  /// largest universe here) and a MAC-style BSSID is 17 bytes. A scan
  /// with more samples than kMaxScanSamples, or with any BSSID longer
  /// than kMaxBssidBytes, enters the window with no samples, as a scan
  /// whose every sample is non-finite does, and all its samples count
  /// in rejected_samples().
  static constexpr std::size_t kMaxScanSamples = 1024;
  static constexpr std::size_t kMaxBssidBytes = 64;

  /// `locator` must outlive the service.
  LocationService(const Locator& locator,
                  LocationServiceConfig config = {});

  /// Unbound form for the snapshot-serving path: the service owns only
  /// the per-client state (window, Kalman track, debounce) and each
  /// scan supplies the locator via the on_scan(locator, scan) overload
  /// — so the serving layer can hot-swap the site's snapshot between
  /// any two scans without resetting anyone's track. The locator-less
  /// on_scan(scan) throws std::logic_error on an unbound service.
  explicit LocationService(LocationServiceConfig config);

  /// Feeds one scan; returns the updated fix. Hostile input degrades
  /// instead of corrupting state: non-finite RSSI samples and over-cap
  /// scans are dropped before they reach the window (counted in
  /// rejected_samples()), and a window the locator cannot answer
  /// coasts on the Kalman track with `fix.degraded_reason` set. Once
  /// the window is full, keeping it allocates nothing while scan sizes
  /// hold steady: ring entries are reused and a compiled locator's
  /// query is merged in per-thread scratch. A buffer holding over four
  /// times what it needs gives the memory back, so one large scan does
  /// not pin its size after it leaves the window.
  ServiceFix on_scan(const radio::ScanRecord& scan);

  /// on_scan against an explicitly supplied locator — the snapshot
  /// form: per-client state lives here, the immutable scoring state
  /// arrives per call. The bound on_scan(scan) is exactly
  /// on_scan(bound locator, scan). One scan in metrics::kSampleEvery
  /// per thread times its locate and sets the Kalman innovation gauge.
  ServiceFix on_scan(const Locator& locator, const radio::ScanRecord& scan);

  /// on_scan as part of a served scan whose caller samples it:
  /// `stages` is null on an unsampled scan, which then reads no clock,
  /// times no locate and leaves the innovation gauge alone. On a
  /// sampled one this ends the door, lookup, merge and locate stages.
  ServiceFix on_scan(const Locator& locator, const radio::ScanRecord& scan,
                     ScanStageClock* stages);

  /// Non-finite and over-cap samples dropped by on_scan() so far.
  std::size_t rejected_samples() const { return rejected_samples_; }

  /// Scans fed through on_scan() over the service's lifetime (survives
  /// reset(), like rejected_samples()).
  std::size_t scans_seen() const { return scans_seen_; }

  /// The most recent fix without feeding anything.
  const ServiceFix& current() const { return fix_; }

  /// Registers a callback fired when the debounced place changes
  /// (old place may be empty on the first resolution).
  using PlaceChangeCallback =
      std::function<void(const std::string& from, const std::string& to)>;
  void on_place_change(PlaceChangeCallback cb) {
    callbacks_.push_back(std::move(cb));
  }

  /// Forgets the window, track, and debounce state (client rejoined).
  void reset();

  const LocationServiceConfig& config() const { return config_; }

  /// False for the unbound (snapshot-serving) form.
  bool bound() const { return locator_ != nullptr; }

 private:
  /// One scan of the window: its finite samples, stored flat so a ring
  /// entry reused for a later scan of similar size keeps its capacity.
  struct WindowScan {
    /// The samples' BSSIDs back to back; sample k's ends at
    /// bssid_ends[k].
    std::string bssids;
    std::vector<std::size_t> bssid_ends;
    std::vector<double> rssi_dbm;

    std::size_t size() const { return rssi_dbm.size(); }
    std::string_view bssid(std::size_t k) const;
  };

  /// One window reading inside the universe: its slot, the ring entry
  /// of its scan, and its dBm.
  struct Reading {
    std::uint32_t slot;
    std::uint32_t entry;
    double dbm;
  };

  /// Per-thread merge buffers and query (defined in the .cpp).
  struct FoldScratch;

  const Locator& bound_locator() const;
  /// Copies the scan's finite samples into the ring, over the oldest
  /// entry once the window is full; an over-cap scan copies none.
  void push_scan(const radio::ScanRecord& scan);
  /// Scores the current window: merged in slot space for a compiled
  /// locator, as an Observation otherwise. `run_for` is the id run_
  /// was current for before the newest scan was pushed (0 when stale).
  /// A non-null `stages` ends the lookup and merge stages and times
  /// the locate.
  Result<LocationEstimate> locate_window(const Locator& locator,
                                         std::uint64_t run_for,
                                         ScanStageClock* stages);
  /// The window's per-AP means and readings on `db`'s universe, in
  /// per-thread scratch (valid until this thread's next fold). Merges
  /// only the newest scan into the run when `run_for` is `db`'s id,
  /// else rebuilds the run from the ring's raw samples.
  const CompiledObservation& fold_window(const CompiledDatabase& db,
                                         std::uint64_t run_for,
                                         ScanStageClock* stages);
  /// Lowers ring entry `entry`'s samples on `db`: the in-universe ones
  /// into the scratch's sorted `fresh`, the others into unknown_ in
  /// place of the entry's previous ones.
  void lookup_entry(const CompiledDatabase& db, std::size_t entry,
                    FoldScratch& f);
  /// Replaces entry `entry`'s readings in run_ with the `fresh` ones
  /// lookup_entry just found; with `q`, the same pass emits the
  /// query's slots, sample runs and means.
  void merge_entry(std::size_t entry, FoldScratch& f,
                   CompiledObservation* q);
  /// The window as scan records, oldest first (non-compiled locators).
  std::vector<radio::ScanRecord> window_records() const;
  /// Ring index of the i-th oldest scan.
  std::size_t ring_index(std::size_t i) const {
    const std::size_t k = oldest_ + i;
    return k < window_.size() ? k : k - window_.size();
  }

  const Locator* locator_;  // non-owning; nullptr when unbound
  LocationServiceConfig config_;
  /// Ring of the last window_scans scans; grows lazily, never
  /// reserved from the config.
  std::vector<WindowScan> window_;
  /// Ring index of the oldest scan (0 until the ring is full).
  std::size_t oldest_ = 0;
  /// The window's readings inside the universe of the compilation
  /// run_for_ names, sorted by slot and, within a slot, oldest first in
  /// sample order — the order from_scans appends them in.
  std::vector<Reading> run_;
  /// The window's readings outside that universe as (ring entry,
  /// sample index), oldest first.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> unknown_;
  /// CompiledDatabase::id() run_ and unknown_ hold the whole ring for;
  /// 0 while they are stale (a swap, reset(), or a scan pushed without
  /// a completed fold).
  std::uint64_t run_for_ = 0;
  KalmanTracker kalman_;
  ServiceFix fix_;
  std::string candidate_place_;
  std::size_t rejected_samples_ = 0;
  std::size_t scans_seen_ = 0;
  int candidate_streak_ = 0;
  std::string announced_place_;
  std::vector<PlaceChangeCallback> callbacks_;
};

}  // namespace loctk::core

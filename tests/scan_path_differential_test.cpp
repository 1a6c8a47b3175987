// Hostile-scan differential for the slot-space scan path.
//
// LocationService folds each session's window straight into a
// CompiledObservation (docs/ALGORITHMS.md, "Scan path in slot space").
// These tests race it — bare, and inside LocationServer sessions across
// mid-window snapshot swaps — against the Observation-path reference
// (testkit/scan_reference.hpp) over seeded streams of hostile scans:
// duplicate BSSIDs, empty and 1000-sample scans, scans at and just
// over the door's sample and BSSID-length caps, NaN/±inf RSSI, finite
// readings near ±1e308 whose window sums overflow, NaN and rewound
// timestamps, never-seen BSSIDs, and swaps to a delta_compile result
// that both grows and shrinks the universe. Every ServiceFix field must
// match bit for bit, and so must the rejected-sample and service.*
// counter tallies; a query-echo probe makes every field of the folded
// query visible in the fix. The window shape is an input too: rings of
// 1, 2, 8 and 33 scans, minimum fills of 1 and 3, samples in reversed
// or shuffled BSSID order, and one session alternating between a
// compiled locator and the non-compiled Bayes grid, whose scans skip
// the fold. Also pins the two memory/identity
// properties the path relies on: CompiledDatabase::id() never repeats,
// and a huge window_scans reserves nothing up front.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.hpp"
#include "core/bayes.hpp"
#include "core/compiled_db.hpp"
#include "core/histogram_locator.hpp"
#include "core/knn.hpp"
#include "core/location_service.hpp"
#include "core/place_recognition.hpp"
#include "core/probabilistic.hpp"
#include "core/ssd_locator.hpp"
#include "serve/location_server.hpp"
#include "stats/rng.hpp"
#include "testkit/scan_reference.hpp"
#include "traindb/database.hpp"

namespace loctk {
namespace {

constexpr std::uint64_t kStreams = 1000;
constexpr std::size_t kMaxSamples = core::LocationService::kMaxScanSamples;
constexpr std::size_t kMaxBssid = core::LocationService::kMaxBssidBytes;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Ten APs around a 30 x 30 ft site, plus three that exist in only one
/// of the two snapshots: "hx:solo" is trained only at p0 and leaves the
/// universe when the delta resurveys p0; "hx:new1"/"hx:new2" arrive
/// with the delta.
constexpr int kRegularAps = 10;
const char* const kSolo = "hx:solo";
const char* const kNew1 = "hx:new1";
const char* const kNew2 = "hx:new2";

/// `prefix` followed by `n` in decimal.
std::string numbered(const char* prefix, std::uint64_t n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

std::string regular_ap(int a) {
  return numbered("hx:0", static_cast<std::uint64_t>(a));
}

geom::Vec2 ap_position(int a) {
  const double angle = 2.0 * 3.14159265358979 * a / kRegularAps;
  return {15.0 + 18.0 * std::cos(angle), 15.0 + 18.0 * std::sin(angle)};
}

double mean_at(geom::Vec2 ap, geom::Vec2 p) {
  return -35.0 - 22.0 * std::log10(std::max(1.0, geom::distance(ap, p)));
}

traindb::ApStatistics trained(const std::string& bssid, double mean) {
  traindb::ApStatistics s;
  s.bssid = bssid;
  s.mean_dbm = mean;
  s.stddev_db = 2.5;
  s.sample_count = 12;
  s.scan_count = 16;
  s.min_dbm = mean - 5.0;
  s.max_dbm = mean + 5.0;
  for (int k = 0; k < 12; ++k) {
    s.samples_centi_dbm.push_back(
        static_cast<std::int32_t>(std::lround((mean + (k % 5 - 2)) * 100.0)));
  }
  return s;
}

/// A point hears the regular APs within 30 ft, plus `extra`.
traindb::TrainingPoint point_at(const std::string& location, geom::Vec2 pos,
                                const std::vector<std::string>& extra) {
  traindb::TrainingPoint p;
  p.location = location;
  p.position = pos;
  for (int a = 0; a < kRegularAps; ++a) {
    if (geom::distance(ap_position(a), pos) < 30.0) {
      p.per_ap.push_back(trained(regular_ap(a), mean_at(ap_position(a), pos)));
    }
  }
  for (const std::string& bssid : extra) {
    p.per_ap.push_back(trained(bssid, mean_at({0.0, 0.0}, pos)));
  }
  return p;
}

struct Snapshots {
  std::shared_ptr<const core::CompiledDatabase> base;
  std::shared_ptr<const core::CompiledDatabase> delta;
};

Snapshots make_snapshots() {
  std::vector<traindb::TrainingPoint> points;
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const int i = y * 4 + x;
      points.push_back(
          point_at(numbered("p", static_cast<std::uint64_t>(i)),
                   {x * 10.0, y * 10.0},
                   i == 0 ? std::vector<std::string>{kSolo}
                          : std::vector<std::string>{}));
    }
  }
  Snapshots s;
  s.base = core::CompiledDatabase::compile_owned(
      traindb::TrainingDatabase::from_points(std::move(points), "hostile"));
  core::DatabaseDelta delta;
  delta.upserts.push_back(point_at("p0", {0.0, 0.0}, {kNew1}));
  delta.upserts.push_back(point_at("p-extra", {35.0, 35.0}, {kNew2}));
  s.delta = s.base->delta_compile(delta);
  return s;
}

/// Scores nothing: answers with a digest of every field of the query
/// it is handed, so a fold that differs from compile_observation in a
/// way no real locator's arg-max shows (an outside_universe count, a
/// sample run) still changes the fix.
class QueryEchoLocator : public core::CompiledLocator {
 public:
  explicit QueryEchoLocator(std::shared_ptr<const core::CompiledDatabase> c)
      : CompiledLocator(std::move(c)) {}
  std::string name() const override { return "query-echo"; }

 protected:
  core::LocationEstimate locate_compiled(
      const core::CompiledObservation& q) const override {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
    mix(q.total_aps);
    mix(static_cast<std::uint64_t>(q.outside_universe));
    for (std::size_t i = 0; i < q.slots.size(); ++i) {
      mix(q.slots[i]);
      mix(std::bit_cast<std::uint64_t>(q.mean_dbm[q.slots[i]]));
      mix(std::bit_cast<std::uint64_t>(q.present[q.slots[i]]));
      for (const double v : q.slot_samples(i)) {
        mix(std::bit_cast<std::uint64_t>(v));
      }
    }
    core::LocationEstimate est;
    est.valid = !q.empty();
    est.position = {static_cast<double>(h >> 40),
                    static_cast<double>(h & 0xFFFFFF)};
    est.location_name = numbered("q", h % 3);
    return est;
  }
};

/// One served algorithm: how to build it over a snapshot.
struct Kind {
  std::string name;
  std::function<std::shared_ptr<const core::Locator>(
      std::shared_ptr<const core::CompiledDatabase>)>
      make;
};

std::vector<Kind> kinds() {
  using C = std::shared_ptr<const core::CompiledDatabase>;
  return {
      {"probabilistic-dense",
       [](C c) { return std::make_shared<core::ProbabilisticLocator>(c); }},
      {"probabilistic-pruned",
       [](C c) {
         core::ProbabilisticConfig config;
         config.prune_top_k = 4;
         config.prune_strongest_aps = 2;
         return std::make_shared<core::ProbabilisticLocator>(c, config);
       }},
      {"knn",
       [](C c) {
         return std::make_shared<core::KnnLocator>(c, core::KnnConfig{.k = 3});
       }},
      {"ssd", [](C c) { return std::make_shared<core::SsdLocator>(c); }},
      {"histogram",
       [](C c) { return std::make_shared<core::HistogramLocator>(c); }},
      {"place-recognition",
       [](C c) { return std::make_shared<core::PlaceRecognitionLocator>(c); }},
      {"query-echo",
       [](C c) { return std::make_shared<QueryEchoLocator>(c); }},
      // Not compiled: the service builds it an Observation from the
      // ring. The deleter keeps the snapshot the locator reads alive.
      {"bayes-grid",
       [](C c) {
         return std::shared_ptr<const core::Locator>(
             new core::BayesGridLocator(c->database()),
             [c](const core::Locator* l) { delete l; });
       }},
  };
}

struct Stream {
  std::vector<radio::ScanRecord> scans;
  /// Index of the scan the snapshot swap lands before; scans.size()
  /// when the stream never swaps.
  std::size_t swap_at = 0;
};

std::string some_bssid(stats::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return kSolo;
    case 1: return kNew1;
    case 2: return kNew2;
    case 3: return "rogue:" + std::to_string(rng.uniform_int(0, 4));
    default: return regular_ap(static_cast<int>(rng.uniform_int(0, 9)));
  }
}

Stream hostile_stream(std::uint64_t seed) {
  stats::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  Stream stream;
  const auto n = static_cast<std::size_t>(rng.uniform_int(8, 20));
  geom::Vec2 pos{rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)};
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    radio::ScanRecord rec;
    const double r = rng.uniform();
    if (r < 0.06) {
      rec.timestamp_s = kNaN;
    } else if (r < 0.12) {
      rec.timestamp_s = t - rng.uniform(0.0, 5.0);  // rewound
    } else {
      t += rng.uniform(0.5, 2.0);
      rec.timestamp_s = t;
    }
    pos.x += rng.normal(0.0, 1.5);
    pos.y += rng.normal(0.0, 1.5);
    const auto shape = rng.uniform_int(0, 99);
    if (shape < 8) {
      // Empty scan.
    } else if (shape < 10) {
      for (int k = 0; k < 1000; ++k) {
        rec.samples.push_back({some_bssid(rng), rng.uniform(-95.0, -30.0), 1});
      }
    } else if (shape < 13) {
      // At or just over the door's caps: a scan of kMaxScanSamples
      // samples or one more, or a regular scan plus a BSSID of
      // kMaxBssidBytes bytes or one more. Over the cap, the whole scan
      // enters the window empty.
      const std::size_t over = rng.bernoulli(0.5) ? 1 : 0;
      if (rng.bernoulli(0.5)) {
        for (std::size_t k = 0; k < kMaxSamples + over; ++k) {
          rec.samples.push_back(
              {some_bssid(rng), rng.uniform(-95.0, -30.0), 1});
        }
      } else {
        for (int a = 0; a < kRegularAps; ++a) {
          rec.samples.push_back(
              {regular_ap(a), mean_at(ap_position(a), pos), 1});
        }
        rec.samples.push_back(
            {std::string(kMaxBssid + over, 'x'), rng.uniform(-90.0, -40.0),
             1});
      }
    } else {
      for (int a = 0; a < kRegularAps; ++a) {
        if (rng.bernoulli(0.75)) {
          rec.samples.push_back({regular_ap(a),
                                 mean_at(ap_position(a), pos) +
                                     rng.normal(0.0, 3.0),
                                 1});
        }
      }
      if (rng.bernoulli(0.2) && !rec.samples.empty()) {
        // Duplicate BSSID inside one scan.
        const auto pick = rng.uniform_int(
            0, static_cast<std::int64_t>(rec.samples.size()) - 1);
        radio::ScanSample dup = rec.samples[static_cast<std::size_t>(pick)];
        dup.rssi_dbm += rng.normal(0.0, 2.0);
        rec.samples.push_back(dup);
      }
      if (rng.bernoulli(0.25)) {
        rec.samples.push_back({some_bssid(rng), rng.uniform(-90.0, -40.0), 1});
      }
      if (rng.bernoulli(0.1)) {
        const double bad[] = {kNaN, kInf, -kInf};
        rec.samples.push_back(
            {some_bssid(rng), bad[rng.uniform_int(0, 2)], 1});
      }
      if (rng.bernoulli(0.06)) {
        // Finite, but two of these in one AP's window overflow its sum.
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        rec.samples.push_back(
            {some_bssid(rng), sign * rng.uniform(0.9e308, 1.7e308), 1});
      }
    }
    stream.scans.push_back(std::move(rec));
  }
  const auto last = static_cast<std::int64_t>(n) - 1;
  stream.swap_at =
      seed % 2 == 1 ? static_cast<std::size_t>(rng.uniform_int(1, last)) : n;
  return stream;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// "" when the fixes agree bit for bit, else what differs.
std::string fix_diff(const core::ServiceFix& want,
                     const core::ServiceFix& got) {
  std::string d;
  if (want.valid != got.valid) d += " valid";
  if (bits(want.position.x) != bits(got.position.x) ||
      bits(want.position.y) != bits(got.position.y)) {
    d += " position";
  }
  if (want.place != got.place) d += " place";
  if (want.window_fill != got.window_fill) d += " window_fill";
  if (want.degraded_reason != got.degraded_reason) {
    d += " degraded_reason('" + want.degraded_reason + "' vs '" +
         got.degraded_reason + "')";
  }
  return d;
}

struct Tally {
  std::uint64_t streams = 0;
  std::uint64_t scans = 0;
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;
  /// Fixes that exercised each hostile outcome, so a generator change
  /// that stops reaching one fails loudly instead of passing vacuously.
  std::uint64_t overflow_fixes = 0;
  std::uint64_t degraded_reasons = 0;
  std::uint64_t over_cap_scans = 0;
  std::uint64_t mismatch_count = 0;
  /// The first few mismatches, for the failure message.
  std::vector<std::string> mismatches;

  void note(const std::string& where, const std::string& diff) {
    if (diff.empty()) return;
    ++mismatch_count;
    if (mismatches.size() < 8) mismatches.push_back(where + ":" + diff);
  }
  void count(const radio::ScanRecord& scan) {
    const bool over_cap =
        scan.samples.size() > kMaxSamples ||
        std::any_of(scan.samples.begin(), scan.samples.end(),
                    [](const radio::ScanSample& s) {
                      return s.bssid.size() > kMaxBssid;
                    });
    if (over_cap) ++over_cap_scans;
  }
  void count(const core::ServiceFix& fix) {
    if (fix.degraded_reason.find("non-finite") != std::string::npos) {
      ++overflow_fixes;
    }
    if (fix.degraded()) ++degraded_reasons;
  }
};

struct ServiceCounters {
  std::uint64_t scans, rejected, degraded;
};

ServiceCounters service_counters() {
  return {metrics::counter("service.scans").value(),
          metrics::counter("service.rejected_samples").value(),
          metrics::counter("service.degraded_fixes").value()};
}

/// The locator stream `stream` sees before scan i: base, switched to
/// the delta snapshot from swap_at on.
const core::Locator& locator_for(const Stream& stream, std::size_t i,
                                 const core::Locator& base,
                                 const core::Locator& swapped) {
  return i < stream.swap_at ? base : swapped;
}

/// How a stream's scans reach the service: as generated (BSSIDs mostly
/// in order, the way NICs report them), or with each scan's
/// samples reversed or shuffled at random.
enum class SampleOrder { kAsGenerated, kMixed };

/// `stream` with each scan's samples left alone, reversed or shuffled
/// (a third each), seeded by `seed`.
Stream reordered(Stream stream, std::uint64_t seed) {
  stats::Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  for (radio::ScanRecord& scan : stream.scans) {
    switch (rng.uniform_int(0, 2)) {
      case 0: break;
      case 1: std::reverse(scan.samples.begin(), scan.samples.end()); break;
      default:
        for (std::size_t k = scan.samples.size(); k > 1; --k) {
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
          std::swap(scan.samples[k - 1], scan.samples[pick]);
        }
    }
  }
  return stream;
}

/// Races a bare service of every kind against the reference, both under
/// `config`, over the hostile streams of seeds [first, first + count).
void race_services(const Snapshots& snaps,
                   const core::LocationServiceConfig& config,
                   std::uint64_t first, std::uint64_t count,
                   SampleOrder order, Tally& tally) {
  const std::vector<Kind> all = kinds();
  std::vector<std::shared_ptr<const core::Locator>> base, swapped;
  for (const Kind& kind : all) {
    base.push_back(kind.make(snaps.base));
    swapped.push_back(kind.make(snaps.delta));
  }
  const std::string shape = "window " + std::to_string(config.window_scans) +
                            "/min " + std::to_string(config.min_scans) + " ";
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    const Stream stream = order == SampleOrder::kMixed
                              ? reordered(hostile_stream(seed), seed)
                              : hostile_stream(seed);
    for (std::size_t k = 0; k < all.size(); ++k) {
      const Kind& kind = all[k];
      testkit::ReferenceScanSession ref(config);
      core::LocationService service(config);
      for (std::size_t i = 0; i < stream.scans.size(); ++i) {
        const core::Locator& locator =
            locator_for(stream, i, *base[k], *swapped[k]);
        const core::ServiceFix want = ref.on_scan(locator, stream.scans[i]);
        const core::ServiceFix got =
            service.on_scan(locator, stream.scans[i]);
        tally.note(shape + kind.name + " seed " + std::to_string(seed) +
                       " scan " + std::to_string(i),
                   fix_diff(want, got));
        tally.count(got);
        tally.count(stream.scans[i]);
      }
      if (service.rejected_samples() != ref.rejected_samples()) {
        tally.note(shape + kind.name + " seed " + std::to_string(seed),
                   " rejected_samples");
      }
      ++tally.streams;
      tally.scans += ref.scans();
      tally.rejected += ref.rejected_samples();
      tally.degraded += ref.degraded_fixes();
    }
  }
}

TEST(HostileScanDifferential, ServiceMatchesReference) {
  const Snapshots snaps = make_snapshots();
  // Grows and shrinks: the delta drops hx:solo and adds two BSSIDs.
  ASSERT_FALSE(snaps.delta->slot_of(kSolo).has_value());
  ASSERT_TRUE(snaps.base->slot_of(kSolo).has_value());
  ASSERT_TRUE(snaps.delta->slot_of(kNew1).has_value());
  ASSERT_EQ(snaps.delta->universe_size(), snaps.base->universe_size() + 1);

  const ServiceCounters before = service_counters();
  Tally tally;
  race_services(snaps, core::LocationServiceConfig{}, 0, kStreams,
                SampleOrder::kAsGenerated, tally);
  const ServiceCounters after = service_counters();

  EXPECT_EQ(tally.mismatch_count, 0u)
      << "first: " << tally.mismatches.front();
  EXPECT_EQ(after.scans - before.scans, tally.scans);
  EXPECT_EQ(after.rejected - before.rejected, tally.rejected);
  EXPECT_EQ(after.degraded - before.degraded, tally.degraded);
  EXPECT_GE(tally.streams / kinds().size(), kStreams);
  EXPECT_GT(tally.rejected, 0u);
  EXPECT_GT(tally.overflow_fixes, 0u);
  EXPECT_GT(tally.degraded_reasons, 0u);
  EXPECT_GT(tally.over_cap_scans, 0u);
}

// The window shape is one more input: rings of one scan (every scan
// overwrites the only entry), two, the default eight and 33 (longer
// than most streams, so it rarely wraps), each reporting from the first
// scan or only from the third, fed scans whose samples arrive reversed
// or shuffled, so a slot's readings reach the merge out of BSSID order
// and duplicate BSSIDs in either order.
TEST(HostileScanDifferential, WindowShapesMatchReference) {
  const Snapshots snaps = make_snapshots();
  constexpr std::uint64_t kShapeStreams = 150;
  std::uint64_t first = 0;
  for (const std::size_t window : {1u, 2u, 8u, 33u}) {
    for (const std::size_t min_scans : {1u, 3u}) {
      core::LocationServiceConfig config;
      config.window_scans = window;
      config.min_scans = min_scans;
      Tally tally;
      race_services(snaps, config, first, kShapeStreams, SampleOrder::kMixed,
                    tally);
      first += kShapeStreams;
      EXPECT_EQ(tally.mismatch_count, 0u)
          << "first: " << tally.mismatches.front();
      EXPECT_GT(tally.rejected, 0u);
      EXPECT_GT(tally.degraded_reasons, 0u);
    }
  }
}

// One unbound service, two locators over one snapshot: a compiled one
// and the Bayes grid, which has no compiled database, so the service
// skips its fold for those scans and the next compiled scan must
// rebuild its run from the ring instead of merging into a stale one.
TEST(HostileScanDifferential, FoldsSkippedByANonCompiledLocatorRebuild) {
  const Snapshots snaps = make_snapshots();
  const std::vector<Kind> all = kinds();
  const Kind& grid = all.back();
  ASSERT_EQ(grid.name, "bayes-grid");
  const std::shared_ptr<const core::Locator> bayes = grid.make(snaps.base);
  ASSERT_EQ(bayes->compiled_database(), nullptr);
  Tally tally;
  std::uint64_t skipped_then_folded = 0;
  for (std::size_t k = 0; k + 1 < all.size(); ++k) {
    const std::shared_ptr<const core::Locator> compiled =
        all[k].make(snaps.base);
    for (std::uint64_t seed = 0; seed < kStreams / 4; ++seed) {
      const Stream stream = reordered(hostile_stream(seed), seed);
      stats::Rng pick(seed + 99);
      testkit::ReferenceScanSession ref;
      core::LocationService service(core::LocationServiceConfig{});
      bool skipped = false;
      for (std::size_t i = 0; i < stream.scans.size(); ++i) {
        const bool use_grid = pick.bernoulli(0.4);
        const core::Locator& locator = use_grid ? *bayes : *compiled;
        const core::ServiceFix want = ref.on_scan(locator, stream.scans[i]);
        const core::ServiceFix got =
            service.on_scan(locator, stream.scans[i]);
        tally.note(all[k].name + " seed " + std::to_string(seed) + " scan " +
                       std::to_string(i),
                   fix_diff(want, got));
        if (!use_grid && skipped) ++skipped_then_folded;
        skipped = use_grid;
      }
    }
  }
  EXPECT_EQ(tally.mismatch_count, 0u)
      << "first: " << tally.mismatches.front();
  EXPECT_GT(skipped_then_folded, 0u);
}

TEST(HostileScanDifferential, ServerMatchesReferenceAcrossSwaps) {
  const Snapshots snaps = make_snapshots();
  const std::vector<Kind> all = kinds();
  serve::LocationServerConfig config;
  config.max_sites = all.size();
  config.sessions_per_site = 4096;
  serve::LocationServer server(config);
  std::vector<std::shared_ptr<const core::Locator>> base, swapped;
  for (const Kind& kind : all) {
    base.push_back(kind.make(snaps.base));
    swapped.push_back(kind.make(snaps.delta));
    server.add_site(kind.name, base.back());
  }

  // One thread per site: sites race each other (shared metrics, the
  // per-thread fold scratch, epoch domains) while every site's own
  // scans and swaps stay in a known order the reference can follow.
  const ServiceCounters before = service_counters();
  std::vector<Tally> tallies(all.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < all.size(); ++k) {
    threads.emplace_back([&, k] {
      const auto site = static_cast<serve::SiteId>(k);
      Tally& tally = tallies[k];
      for (std::uint64_t seed = 0; seed < kStreams; ++seed) {
        const Stream stream = hostile_stream(seed);
        testkit::ReferenceScanSession ref;
        for (std::size_t i = 0; i < stream.scans.size(); ++i) {
          if (i == stream.swap_at) server.swap_site(site, swapped[k]);
          const core::Locator& locator =
              locator_for(stream, i, *base[k], *swapped[k]);
          const core::ServiceFix want = ref.on_scan(locator, stream.scans[i]);
          const core::ServiceFix got =
              server.on_scan(site, seed + 1, stream.scans[i]);
          tally.note(all[k].name + " seed " + std::to_string(seed) +
                         " scan " + std::to_string(i),
                     fix_diff(want, got));
          tally.count(got);
        }
        if (stream.swap_at < stream.scans.size()) {
          server.swap_site(site, base[k]);
        }
        ++tally.streams;
        tally.scans += ref.scans();
        tally.rejected += ref.rejected_samples();
        tally.degraded += ref.degraded_fixes();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const ServiceCounters after = service_counters();

  Tally total;
  for (std::size_t k = 0; k < all.size(); ++k) {
    const Tally& t = tallies[k];
    EXPECT_EQ(t.mismatch_count, 0u)
        << all[k].name << ", first: " << t.mismatches.front();
    EXPECT_GE(t.streams, kStreams);
    EXPECT_EQ(server.stats(static_cast<serve::SiteId>(k)).errors, 0u);
    total.scans += t.scans;
    total.rejected += t.rejected;
    total.degraded += t.degraded;
    total.overflow_fixes += t.overflow_fixes;
  }
  EXPECT_EQ(after.scans - before.scans, total.scans);
  EXPECT_EQ(after.rejected - before.rejected, total.rejected);
  EXPECT_EQ(after.degraded - before.degraded, total.degraded);
  EXPECT_GT(total.overflow_fixes, 0u);
}

TEST(CompiledDatabaseId, NeverRepeatsAcrossConstructDestroyAndDeltaChains) {
  const Snapshots snaps = make_snapshots();
  std::set<std::uint64_t> seen{snaps.base->id(), snaps.delta->id()};
  std::size_t drawn = 2;
  for (int round = 0; round < 50; ++round) {
    // Freed right away, so the next compile likely reuses the address:
    // the id must still be new.
    const auto fresh = core::CompiledDatabase::compile_owned(
        traindb::TrainingDatabase(snaps.base->database()));
    seen.insert(fresh->id());
    ++drawn;
  }
  auto chain = snaps.base;
  for (std::uint64_t step = 0; step < 50; ++step) {
    core::DatabaseDelta delta;
    const auto col = static_cast<double>(step % 4);
    const auto row = static_cast<double>(step % 3);
    delta.upserts.push_back(
        point_at(numbered("p", step % 16), {col * 10.0, row * 10.0}, {}));
    chain = chain->delta_compile(delta);
    seen.insert(chain->id());
    ++drawn;
  }
  EXPECT_EQ(seen.size(), drawn);
  EXPECT_EQ(seen.count(0), 0u);
}

TEST(LocationService, HugeWindowAllocatesNothingUpFront) {
  // A ring reserved from the config would ask for 2^40 entries here
  // and throw; the ring grows with the scans actually fed.
  core::LocationServiceConfig config;
  config.window_scans = std::size_t{1} << 40;
  const Snapshots snaps = make_snapshots();
  const core::ProbabilisticLocator locator(snaps.base);
  core::LocationService service(locator, config);
  core::ServiceFix fix;
  for (int i = 0; i < 3; ++i) {
    radio::ScanRecord rec;
    rec.timestamp_s = i;
    for (int a = 0; a < kRegularAps; ++a) {
      rec.samples.push_back(
          {regular_ap(a), mean_at(ap_position(a), {10.0, 10.0}), 1});
    }
    fix = service.on_scan(rec);
  }
  EXPECT_EQ(fix.window_fill, 3u);
  EXPECT_TRUE(fix.valid);
}

}  // namespace
}  // namespace loctk

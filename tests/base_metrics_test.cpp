// Unit tests for the observability layer: lock-free counters/gauges,
// the sharded histogram metric, registry snapshot determinism, the
// JSON export (round-tripped through a test-local mini parser), and
// the RAII timing helpers.

#include "base/metrics.hpp"

#include <atomic>
#include <cctype>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace loctk::metrics {
namespace {

/// --- a minimal JSON parser (test-local, keeps the library lean) ------

struct JsonValue {
  enum Kind { kNull, kNumber, kString, kObject, kArray };
  Kind kind = kNull;
  double number = 0.0;
  std::string str;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) {
      throw std::runtime_error("missing key: " + key);
    }
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing bytes");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 'n') {
      if (text_.substr(pos_, 4) != "null") {
        throw std::runtime_error("bad literal");
      }
      pos_ += 4;
      return JsonValue{};
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      JsonValue key = parse_string();
      expect(':');
      v.object.emplace(key.str, parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u': {
            const std::string hex(text_.substr(pos_, 4));
            pos_ += 4;
            c = static_cast<char>(std::stoi(hex, nullptr, 16));
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
      }
      v.str.push_back(c);
    }
    expect('"');
    return v;
  }

  JsonValue parse_number() {
    skip_ws();
    std::size_t used = 0;
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.number = std::stod(std::string(text_.substr(pos_)), &used);
    if (used == 0) throw std::runtime_error("bad number");
    pos_ += used;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// --- counters / gauges -----------------------------------------------

TEST(Counter, AddIncrementReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

/// --- histogram metric ------------------------------------------------

TEST(HistogramMetric, RecordAndSummaryStats) {
  HistogramOptions opts;
  opts.lo = 0.0;
  opts.hi = 100.0;
  opts.bins = 100;
  opts.log_scale = false;
  opts.unit = "ft";
  HistogramMetric h(opts);
  for (int i = 0; i < 100; ++i) h.record(i + 0.5);

  const HistogramSnapshot snap = h.snapshot("test");
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 99.5);
  EXPECT_NEAR(snap.mean(), 50.0, 1e-9);
  // One sample per unit-width bin: the quantile interpolation should
  // land within a bin of the exact order statistic.
  EXPECT_NEAR(snap.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(snap.quantile(0.9), 90.0, 1.5);
  EXPECT_GE(snap.quantile(1.0), snap.quantile(0.0));
}

TEST(HistogramMetric, LogScaleUnderAndOverflow) {
  HistogramMetric h;  // default latency layout: log10 s in [-7, 2]
  h.record(1e-3);     // in range
  h.record(0.0);      // not log-scalable -> underflow
  h.record(-5.0);     // not log-scalable -> underflow
  h.record(1e-9);     // below 100 ns -> underflow
  h.record(1e6);      // above 100 s -> overflow

  const HistogramSnapshot snap = h.snapshot("lat");
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.bins.underflow(), 3u);
  EXPECT_EQ(snap.bins.overflow(), 1u);
  EXPECT_EQ(snap.bins.total(), 5u);
  // p50 reported in natural units, inside the recorded magnitude.
  const double p50 = snap.quantile(0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 1.0);
}

TEST(HistogramMetric, RecordNWeightsAllSlots) {
  HistogramOptions opts;
  opts.lo = 0.0;
  opts.hi = 10.0;
  opts.bins = 10;
  opts.log_scale = false;
  HistogramMetric h(opts);
  h.record_n(2.5, 7);
  const HistogramSnapshot snap = h.snapshot("w");
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.sum, 17.5);
  EXPECT_EQ(snap.bins.count(2), 7u);
}

TEST(HistogramMetric, ConcurrentRecordsAreLossless) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  HistogramOptions opts;
  opts.lo = 0.0;
  opts.hi = 1.0;
  opts.bins = 16;
  opts.log_scale = false;
  HistogramMetric h(opts);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record((t * kPerThread + i) % 16 / 16.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const HistogramSnapshot snap = h.snapshot("conc");
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.bins.total(), snap.count);  // no sample lost in shards
}

TEST(HistogramMetric, ShardedTotalsAreExactUnderConcurrency) {
  // More threads than shards, so some shards take two recorders. Every
  // value is a small integer, so the merged sum is exact in any order.
  constexpr int kThreads = 12;
  constexpr int kPerThread = 2000;
  HistogramOptions opts;
  opts.lo = 0.0;
  opts.hi = 1.0e5;
  opts.bins = 10;
  opts.log_scale = false;
  HistogramMetric h(opts);
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(t * kPerThread + i + 1));
        c.add(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr double n = static_cast<double>(kThreads) * kPerThread;
  const HistogramSnapshot snap = h.snapshot("conc");
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(n));
  EXPECT_EQ(h.count(), snap.count);
  EXPECT_EQ(snap.sum, n * (n + 1.0) / 2.0);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, n);
  EXPECT_EQ(snap.bins.total(), snap.count);
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kPerThread) * kThreads * (kThreads + 1) / 2);
}

/// --- registry --------------------------------------------------------

TEST(MetricsRegistry, SameNameResolvesToSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Same name, different kind: independent objects.
  reg.gauge("x").set(1.0);
  EXPECT_EQ(reg.counter("x").value(), 3u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.gauge("mid").set(0.5);
  reg.histogram("lat").record(1e-3);

  const MetricsSnapshot a = reg.snapshot();
  ASSERT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.counters[0].first, "alpha");
  EXPECT_EQ(a.counters[1].first, "zeta");

  const MetricsSnapshot b = reg.snapshot();
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_FALSE(a.empty());
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  Gauge& g = reg.gauge("depth");
  HistogramMetric& h = reg.histogram("lat");
  c.add(10);
  g.set(4.0);
  h.record(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.increment();  // references stay usable after reset
  EXPECT_EQ(reg.counter("events").value(), 1u);
}

TEST(MetricsRegistry, GlobalShorthandsHitTheGlobalRegistry) {
  Counter& c = counter("test.metrics.global_shorthand");
  const std::uint64_t before = c.value();
  counter("test.metrics.global_shorthand").increment();
  EXPECT_EQ(c.value(), before + 1);
}

/// --- JSON export -----------------------------------------------------

TEST(MetricsSnapshot, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("ingest.files").add(64);
  reg.counter("locate.calls").add(1000);
  reg.gauge("queue \"depth\"").set(2.5);  // exercise escaping
  HistogramOptions opts;
  opts.lo = 0.0;
  opts.hi = 10.0;
  opts.bins = 10;
  opts.log_scale = false;
  opts.unit = "ft";
  HistogramMetric& h = reg.histogram("error", opts);
  h.record(1.5);
  h.record_n(4.5, 3);
  h.record(-2.0);  // underflow
  h.record(99.0);  // overflow

  const std::string json = reg.snapshot().to_json();
  const JsonValue root = JsonParser(json).parse();

  EXPECT_DOUBLE_EQ(root.at("counters").at("ingest.files").number, 64.0);
  EXPECT_DOUBLE_EQ(root.at("counters").at("locate.calls").number, 1000.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("queue \"depth\"").number, 2.5);

  const JsonValue& hist = root.at("histograms").at("error");
  EXPECT_EQ(hist.at("unit").str, "ft");
  EXPECT_EQ(hist.at("scale").str, "linear");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 6.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, -2.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 99.0);

  // Bin counts must re-sum to the total, under/overflow included.
  double bin_total = 0.0;
  bool saw_underflow = false;
  bool saw_overflow = false;
  for (const JsonValue& bin : hist.at("bins").array) {
    bin_total += bin.at("count").number;
    saw_underflow |= bin.at("lo").kind == JsonValue::kNull;
    saw_overflow |= bin.at("hi").kind == JsonValue::kNull;
  }
  EXPECT_DOUBLE_EQ(bin_total, 6.0);
  EXPECT_TRUE(saw_underflow);
  EXPECT_TRUE(saw_overflow);
}

TEST(MetricsSnapshot, SingleThreadedSnapshotBytesArePinned) {
  // Counters and histogram totals are sharded per thread; one recording
  // thread fills one shard, so the export must stay byte-identical to
  // the unsharded layout's (these bytes were produced by it).
  MetricsRegistry reg;
  reg.counter("a.calls").add(7);
  reg.counter("a.calls").increment();
  reg.counter("b.idle");
  reg.gauge("a.gauge").set(2.5);
  HistogramMetric& h = reg.histogram("a.latency.seconds");
  for (int i = 1; i <= 50; ++i) h.record(1e-6 * i);
  h.record_n(3e-3, 4);
  h.record(0.0);
  HistogramOptions lin;
  lin.lo = -10.0;
  lin.hi = 10.0;
  lin.bins = 20;
  lin.log_scale = false;
  lin.unit = "ft";
  HistogramMetric& e = reg.histogram("a.error_ft", lin);
  for (int i = 0; i < 30; ++i) e.record(-12.0 + 0.9 * i);

  const std::string expected = R"json({
  "counters": {
    "a.calls": 8,
    "b.idle": 0
  },
  "gauges": {
    "a.gauge": 2.5
  },
  "histograms": {
    "a.error_ft": {"unit": "ft", "scale": "linear", "count": 30, "sum": 31.50000000000001, "min": -12, "max": 14.100000000000001, "mean": 1.0500000000000003, "p50": 1, "p90": 1e+01, "p99": 1e+01, "bins": [{"lo": null, "hi": -1e+01, "count": 3}, {"lo": -1e+01, "hi": -9, "count": 1}, {"lo": -9, "hi": -8, "count": 1}, {"lo": -8, "hi": -7, "count": 1}, {"lo": -7, "hi": -6, "count": 1}, {"lo": -6, "hi": -5, "count": 1}, {"lo": -5, "hi": -4, "count": 1}, {"lo": -4, "hi": -3, "count": 1}, {"lo": -3, "hi": -2, "count": 2}, {"lo": -2, "hi": -1, "count": 1}, {"lo": -1, "hi": 0, "count": 1}, {"lo": 0, "hi": 1, "count": 1}, {"lo": 1, "hi": 2, "count": 1}, {"lo": 2, "hi": 3, "count": 1}, {"lo": 3, "hi": 4, "count": 1}, {"lo": 4, "hi": 5, "count": 1}, {"lo": 5, "hi": 6, "count": 1}, {"lo": 6, "hi": 7, "count": 2}, {"lo": 7, "hi": 8, "count": 1}, {"lo": 8, "hi": 9, "count": 1}, {"lo": 9, "hi": 1e+01, "count": 1}, {"lo": 1e+01, "hi": null, "count": 5}]},
    "a.latency.seconds": {"unit": "s", "scale": "log10", "count": 55, "sum": 0.013275, "min": 0, "max": 0.003, "mean": 0.00024136363636363637, "p50": 2.6607250597988085e-05, "p90": 5.8997462559235595e-05, "p99": 0.002999738059779511, "bins": [{"lo": null, "hi": -7, "count": 1}, {"lo": -6, "hi": -5.833333333333334, "count": 1}, {"lo": -5.833333333333334, "hi": -5.666666666666667, "count": 1}, {"lo": -5.666666666666667, "hi": -5.5, "count": 1}, {"lo": -5.5, "hi": -5.333333333333334, "count": 1}, {"lo": -5.333333333333334, "hi": -5.166666666666667, "count": 2}, {"lo": -5.166666666666667, "hi": -5, "count": 3}, {"lo": -5, "hi": -4.833333333333334, "count": 5}, {"lo": -4.833333333333334, "hi": -4.666666666666667, "count": 7}, {"lo": -4.666666666666667, "hi": -4.5, "count": 10}, {"lo": -4.5, "hi": -4.333333333333334, "count": 15}, {"lo": -4.333333333333334, "hi": -4.166666666666667, "count": 4}, {"lo": -2.666666666666667, "hi": -2.5, "count": 4}]}
  }
}
)json";
  EXPECT_EQ(reg.snapshot().to_json(), expected);
}

TEST(MetricsSnapshot, EmptySnapshotIsValidJson) {
  MetricsRegistry reg;
  const JsonValue root = JsonParser(reg.snapshot().to_json()).parse();
  EXPECT_TRUE(root.at("counters").object.empty());
  EXPECT_TRUE(root.at("gauges").object.empty());
  EXPECT_TRUE(root.at("histograms").object.empty());
  EXPECT_NE(reg.snapshot().to_text().find("no metrics"),
            std::string::npos);
}

/// --- RAII timing -----------------------------------------------------

TEST(ScopedTimer, RecordsElapsedOnDestruction) {
  HistogramMetric h;
  {
    ScopedTimer timer(h);
    EXPECT_GE(timer.elapsed_s(), 0.0);
  }
  const HistogramSnapshot snap = h.snapshot("t");
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
}

TEST(ScopedTimer, WeightSplitsBatchIntoPerOpSamples) {
  HistogramMetric h;
  { ScopedTimer timer(h, 64); }
  EXPECT_EQ(h.count(), 64u);
}

TEST(ScopedTimer, NullHistogramRecordsNothing) {
  { ScopedTimer timer(static_cast<HistogramMetric*>(nullptr), 64); }
  HistogramMetric h;
  { ScopedTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(SampleCountdown, PicksTheFirstCallThenEveryNth) {
  SampleCountdown countdown;
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < 3 * kSampleEvery + 1; ++i) {
    if (countdown.tick()) picked.push_back(i);
  }
  EXPECT_EQ(picked, (std::vector<std::size_t>{0, kSampleEvery,
                                              2 * kSampleEvery,
                                              3 * kSampleEvery}));
}

enum class ThreeStages { kA, kB, kC, kCount };

TEST(StageClock, SkippedStagesLastZeroAndStagesPartitionTheTotal) {
  StageClock<ThreeStages> clock;
  clock.end(ThreeStages::kA);
  clock.end(ThreeStages::kC);  // kB skipped
  EXPECT_GE(clock.seconds(ThreeStages::kA), 0.0);
  EXPECT_EQ(clock.seconds(ThreeStages::kB), 0.0);
  EXPECT_GE(clock.seconds(ThreeStages::kC), 0.0);
  const double sum = clock.seconds(ThreeStages::kA) +
                     clock.seconds(ThreeStages::kB) +
                     clock.seconds(ThreeStages::kC);
  EXPECT_NEAR(sum, clock.total_seconds(), 1e-12);
}

TEST(TraceSpan, RecordsCallAndDuration) {
  const std::uint64_t calls_before =
      counter("trace.test_span.calls").value();
  const std::uint64_t samples_before =
      histogram("trace.test_span.seconds").count();
  { TraceSpan span("test_span"); }
  EXPECT_EQ(counter("trace.test_span.calls").value(), calls_before + 1);
  EXPECT_EQ(histogram("trace.test_span.seconds").count(),
            samples_before + 1);
}

}  // namespace
}  // namespace loctk::metrics

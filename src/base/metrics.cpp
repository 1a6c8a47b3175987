#include "base/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace loctk::metrics {

namespace {

/// CAS loop for atomic min/max over doubles (fetch_min on floats is
/// not in C++20).
void atomic_min(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

/// Shortest round-trippable decimal for JSON/text export.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shortest representation that parses back exactly.
  for (int prec = 1; prec <= 16; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::size_t detail::next_thread_shard() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kShards;
}

/// --- HistogramMetric --------------------------------------------------

HistogramMetric::HistogramMetric(HistogramOptions options)
    : options_(std::move(options)),
      edges_(options_.lo, options_.hi, std::max<std::size_t>(1, options_.bins)) {
  const std::size_t slots = edges_.bin_count() + 2;
  for (Shard& shard : shards_) {
    shard.slots = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
    for (std::size_t i = 0; i < slots; ++i) shard.slots[i] = 0;
  }
}

void HistogramMetric::record_n(double value, std::uint64_t n) {
  if (n == 0 || std::isnan(value)) return;

  double x = value;
  if (options_.log_scale) {
    // Non-positive values cannot be log-scaled; route to underflow by
    // mapping below the domain.
    x = value > 0.0 ? std::log10(value) : options_.lo - 1.0;
  }
  std::size_t slot;  // 0 underflow, 1..bins bins, bins+1 overflow
  if (x < options_.lo) {
    slot = 0;
  } else if (x >= options_.hi) {
    slot = edges_.bin_count() + 1;
  } else {
    slot = 1 + edges_.bin_index(x);
  }
  Shard& shard = shards_[detail::this_thread_shard()];
  shard.slots[slot].fetch_add(n, std::memory_order_relaxed);

  const bool first =
      shard.count.fetch_add(n, std::memory_order_relaxed) == 0;
  shard.sum.fetch_add(value * static_cast<double>(n),
                      std::memory_order_relaxed);
  if (first) {
    // Seed min/max so the CAS loops compare against a real sample
    // rather than the 0.0 initializer. A racing second recorder on the
    // same shard still converges: both run the min/max loops below.
    shard.min.store(value, std::memory_order_relaxed);
    shard.max.store(value, std::memory_order_relaxed);
  }
  atomic_min(shard.min, value);
  atomic_max(shard.max, value);
}

std::uint64_t HistogramMetric::count() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

HistogramSnapshot HistogramMetric::snapshot(std::string name) const {
  HistogramSnapshot snap;
  snap.name = std::move(name);
  snap.options = options_;
  snap.bins = stats::Histogram(options_.lo, options_.hi, edges_.bin_count());

  const std::size_t bins = edges_.bin_count();
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  for (const Shard& shard : shards_) {
    underflow += shard.slots[0].load(std::memory_order_relaxed);
    overflow += shard.slots[bins + 1].load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < bins; ++b) {
      const std::uint64_t c =
          shard.slots[b + 1].load(std::memory_order_relaxed);
      if (c) snap.bins.add_n(edges_.bin_center(b), c);
    }
  }
  if (underflow) snap.bins.add_n(options_.lo - 1.0, underflow);
  if (overflow) snap.bins.add_n(options_.hi + 1.0, overflow);

  // Totals merge over the shards that recorded anything, in shard
  // order; with one such shard every field is that shard's own value.
  bool seen = false;
  for (const Shard& shard : shards_) {
    const std::uint64_t count = shard.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    const double lo = shard.min.load(std::memory_order_relaxed);
    const double hi = shard.max.load(std::memory_order_relaxed);
    snap.count += count;
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.min = seen ? std::min(snap.min, lo) : lo;
    snap.max = seen ? std::max(snap.max, hi) : hi;
    seen = true;
  }
  return snap;
}

void HistogramMetric::reset() {
  const std::size_t slots = edges_.bin_count() + 2;
  for (Shard& shard : shards_) {
    for (std::size_t i = 0; i < slots; ++i) {
      shard.slots[i].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
    shard.min.store(0.0, std::memory_order_relaxed);
    shard.max.store(0.0, std::memory_order_relaxed);
  }
}

double HistogramSnapshot::quantile(double q) const {
  const std::uint64_t total = bins.total();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);

  const auto to_natural = [&](double x) {
    return options.log_scale ? std::pow(10.0, x) : x;
  };

  double cumulative = static_cast<double>(bins.underflow());
  if (cumulative >= target && bins.underflow() > 0) {
    return to_natural(options.lo);
  }
  for (std::size_t b = 0; b < bins.bin_count(); ++b) {
    const double c = static_cast<double>(bins.count(b));
    if (c > 0.0 && cumulative + c >= target) {
      // Linear interpolation within the containing bin.
      const double frac =
          std::clamp((target - cumulative) / c, 0.0, 1.0);
      return to_natural(bins.bin_lo(b) +
                        frac * (bins.bin_hi(b) - bins.bin_lo(b)));
    }
    cumulative += c;
  }
  return to_natural(options.hi);
}

/// --- MetricsSnapshot --------------------------------------------------

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  os << "--- metrics snapshot ---\n";
  for (const auto& [name, value] : counters) {
    os << "counter    " << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge      " << name << " = " << format_double(value) << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    os << "histogram  " << h.name << " count=" << h.count;
    if (h.count) {
      os << " mean=" << format_double(h.mean())
         << " min=" << format_double(h.min)
         << " max=" << format_double(h.max)
         << " p50=" << format_double(h.quantile(0.5))
         << " p90=" << format_double(h.quantile(0.9))
         << " p99=" << format_double(h.quantile(0.99));
      if (!h.options.unit.empty()) os << " unit=" << h.options.unit;
    }
    os << "\n";
  }
  if (empty()) os << "(no metrics recorded)\n";
  return os.str();
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    write_json_string(os, counters[i].first);
    os << ": " << counters[i].second;
  }
  os << (counters.empty() ? "},\n" : "\n  },\n");

  os << "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    write_json_string(os, gauges[i].first);
    os << ": " << format_double(gauges[i].second);
  }
  os << (gauges.empty() ? "},\n" : "\n  },\n");

  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    os << (i ? ",\n    " : "\n    ");
    write_json_string(os, h.name);
    os << ": {\"unit\": ";
    write_json_string(os, h.options.unit);
    os << ", \"scale\": \"" << (h.options.log_scale ? "log10" : "linear")
       << "\", \"count\": " << h.count
       << ", \"sum\": " << format_double(h.sum)
       << ", \"min\": " << format_double(h.min)
       << ", \"max\": " << format_double(h.max)
       << ", \"mean\": " << format_double(h.mean())
       << ", \"p50\": " << format_double(h.quantile(0.5))
       << ", \"p90\": " << format_double(h.quantile(0.9))
       << ", \"p99\": " << format_double(h.quantile(0.99))
       << ", \"bins\": [";
    bool first_bin = true;
    if (h.bins.underflow()) {
      os << "{\"lo\": null, \"hi\": " << format_double(h.bins.lo())
         << ", \"count\": " << h.bins.underflow() << "}";
      first_bin = false;
    }
    for (std::size_t b = 0; b < h.bins.bin_count(); ++b) {
      if (!h.bins.count(b)) continue;
      if (!first_bin) os << ", ";
      first_bin = false;
      os << "{\"lo\": " << format_double(h.bins.bin_lo(b))
         << ", \"hi\": " << format_double(h.bins.bin_hi(b))
         << ", \"count\": " << h.bins.count(b) << "}";
    }
    if (h.bins.overflow()) {
      if (!first_bin) os << ", ";
      os << "{\"lo\": " << format_double(h.bins.hi())
         << ", \"hi\": null, \"count\": " << h.bins.overflow() << "}";
    }
    os << "]}";
  }
  os << (histograms.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

/// --- MetricsRegistry --------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumentation in thread-pool workers and
  // static destructors must never observe a destroyed registry.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name,
                                            const HistogramOptions& options) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<HistogramMetric>(options))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(h->snapshot(name));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& counter(std::string_view name) {
  return MetricsRegistry::global().counter(name);
}

Gauge& gauge(std::string_view name) {
  return MetricsRegistry::global().gauge(name);
}

HistogramMetric& histogram(std::string_view name,
                           const HistogramOptions& options) {
  return MetricsRegistry::global().histogram(name, options);
}

TraceSpan::TraceSpan(std::string_view name)
    : timer_(histogram("trace." + std::string(name) + ".seconds")) {
  counter("trace." + std::string(name) + ".calls").increment();
}

}  // namespace loctk::metrics

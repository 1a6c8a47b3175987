// scanbench: the scan-to-fix benchmark.
//
//   scanbench synth --workload W --seed N --out DIR
//       Synthesizes the seeded inputs of workload W into DIR.
//   scanbench run --workload W --seed N --seconds S --trace 0|1 --inputs DIR
//       Cold-starts every site from DIR, replays the recorded traces
//       through LocationServer::on_scan, checks the outputs, prints a
//       report and, as the last line, one JSON result object.
//
// `--trace 0` measures the end-to-end metrics with no per-call clock on
// the scan path; `--trace 1` is the separate traced run that gives the
// per-layer numbers. GLOSSARY.md defines every metric.

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/metrics.hpp"
#include "base/simd.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "testkit/differential.hpp"

namespace {

using namespace scanbench;

/// Data-plane worker threads, clamped to the CPUs this process may use.
/// Two rather than nproc: on the 4-vCPU host the benchmark was defined
/// on, a third and fourth spinning thread met multi-millisecond stalls
/// several times a second, set by other tenants rather than the code.
constexpr std::size_t kWorkers = 2;
/// Cold starts at the start of a run; the traced run's ingest metrics
/// are their medians.
constexpr std::size_t kSetupRuns = 21;
/// End-to-end run: rounds of a cold-start burst, a saturate segment and
/// a paced segment, and the shares of --seconds each takes.
constexpr std::size_t kRounds = 6;
constexpr double kSetupShare = 0.1;
constexpr double kSaturateShare = 0.2;
constexpr double kPacedShare = 0.7;
/// The gated timings take this quantile of their samples over the run:
/// setup_s of the cold starts, scan_p50_us of each trace slice's visits
/// (see where they are added).
constexpr double kQuietQuantile = 0.05;
/// A slice of the paced trace (stats.hpp SliceVisits) spans 20 ms of one
/// worker's sends, and at least 100 scans so that a visit's p50 is steady.
constexpr double kSliceSeconds = 0.02;
constexpr std::size_t kMinSliceScans = 100;
/// Window for traced span percentiles.
constexpr double kSpanWindowSeconds = 0.1;
/// Windows with fewer samples are left out of windowed percentiles.
constexpr std::size_t kMinWindowSamples = 100;
/// Untraced/traced phase pairs in the traced run.
constexpr std::size_t kTracePairs = 4;

/// Paced percentile window: at least 50 ms, and long enough to send 400
/// scans so each window's p90 has 40 samples beyond it.
double paced_window_s(double offered_per_s) {
  return std::max(0.05, 400.0 / offered_per_s);
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::filesystem::path dir;
};

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--inputs" || flag == "--out") {
        args.dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if ((argc % 2) != 0 || args.workload.empty() || args.dir.empty() ||
      !(args.seconds > 0.0) || (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Peak resident memory of this process so far.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-window q-percentile of a phase's latency samples.
std::vector<double> window_percentiles(const PhaseResult& r, double seconds,
                                       double window_s, double q) {
  return windowed_percentiles(r.at_s, r.latency_s, seconds, window_s, q,
                              kMinWindowSamples);
}

/// Failure and health counts summed over phases.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reader_stalls = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t errors = 0;

  void add(const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    reader_stalls += r.reader_stalls;
    sessions_rejected += r.sessions_rejected;
    errors += r.errors;
  }
};

/// Collects metrics, prints the human report and the JSON result line.
class Report {
 public:
  /// `in_result`: the metric belongs to the JSON result of this mode
  /// (BENCHMARK.json lists it); otherwise it is printed only.
  void add(const std::string& name, double value, const char* unit,
           std::size_t n, bool in_result) {
    rows_.push_back({name, value, unit, n, in_result});
  }

  /// Adds a percentile of raw samples; a tail percentile without at
  /// least kMinTailSamples beyond it is a failed check, not a number.
  void add_percentile(const std::string& name, const std::vector<double>& raw,
                      double q, double scale, const char* unit,
                      bool in_result) {
    if (raw.empty() || (q > 0.5 && !tail_supported(raw.size(), q))) {
      fail(name + ": " + std::to_string(raw.size()) +
           " samples do not support this percentile");
      return;
    }
    std::vector<double> sorted = raw;
    std::sort(sorted.begin(), sorted.end());
    add(name, percentile_sorted(sorted, q) * scale, unit, raw.size(),
        in_result);
  }

  /// Adds the median of per-window figures (see stats.hpp); `n` is the
  /// number of raw samples behind them.
  void add_windowed(const std::string& name, const std::vector<double>& windows,
                    double scale, const char* unit, std::size_t n,
                    bool in_result) {
    if (windows.empty()) {
      fail(name + ": no window held enough samples");
      return;
    }
    add(name, median(windows) * scale, unit, n, in_result);
  }

  void fail(std::string violation) {
    violations_.push_back(std::move(violation));
  }
  void fail_all(const std::vector<std::string>& violations) {
    for (const std::string& v : violations) fail(v);
  }

  /// Prints everything; returns the process exit code.
  int finish(std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("%-34s %16s  %-8s %10s\n", "metric", "value", "unit", "n");
    for (const Row& r : rows_) {
      std::printf("%-34s %16.6g  %-8s %10zu%s\n", r.name.c_str(), r.value,
                  r.unit, r.n, r.in_result ? "" : "  (report only)");
    }
    for (const std::string& v : violations_) {
      std::printf("CHECK FAILED: %s\n", v.c_str());
    }
    const bool correct = violations_.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const Row& r : rows_) {
      if (!r.in_result) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", r.name.c_str(), r.value, r.unit);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? EXIT_SUCCESS : EXIT_FAILURE;
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    std::size_t n;
    bool in_result;
  };
  std::vector<Row> rows_;
  std::vector<std::string> violations_;
};

void check_digests(const char* phase, const std::vector<DeviceTally>& got,
                   const std::vector<DeviceTally>& reference, Report& report) {
  for (std::size_t d = 0; d < reference.size(); ++d) {
    const std::uint64_t n = got[d].scans;
    if (n > reference[d].scans ||
        (n > 0 && got[d].digest != reference[d].prefix[n - 1])) {
      report.fail(std::string(phase) + ": device slot " + std::to_string(d) +
                  " fix stream differs from the reference pass");
      return;
    }
  }
}

/// Accuracy of the reference pass, whose fix streams every phase was
/// checked against. Deterministic per seed, so its spread across seeds
/// measures the workload, not the code: reported, not gated.
void add_accuracy(const std::vector<DeviceTally>& tallies, Report& report) {
  constexpr bool in_result = false;
  std::uint64_t scans = 0;
  std::uint64_t valid = 0;
  std::vector<double> errors;
  for (const DeviceTally& t : tallies) {
    scans += t.scans;
    valid += t.valid;
    errors.insert(errors.end(), t.error_ft.begin(), t.error_ft.end());
  }
  report.add("valid_fix_frac",
             static_cast<double>(valid) / static_cast<double>(scans), "ratio",
             scans, in_result);
  report.add_percentile("err_p50_ft", errors, 0.50, 1.0, "ft", in_result);
  report.add_percentile("err_p90_ft", errors, 0.90, 1.0, "ft", in_result);
}

/// The delta-compiled map a republish chain left behind must equal a
/// from-scratch compile of the same points, cell for cell.
void check_delta_compile(const Republisher& republisher, Report& report) {
  const auto delta = republisher.compiled(0);
  const auto rebuild = loctk::core::CompiledDatabase::compile_owned(
      loctk::traindb::TrainingDatabase::from_points(
          delta->database().points(), delta->database().site_name()));
  const auto diff = loctk::testkit::compare_compiled_databases(*delta, *rebuild);
  if (!diff.ok()) report.fail("delta-compile differs: " + diff.to_text());
}

void check_republish_count(const Republisher& republisher,
                           std::uint64_t attempted, std::uint64_t every,
                           Report& report) {
  if (republisher.samples().waves != attempted / every) {
    report.fail("republish waves " +
                std::to_string(republisher.samples().waves) + ", expected " +
                std::to_string(attempted / every));
  }
}

int run(const Args& args, const WorkloadSpec& w) {
  Report report;
  const Inputs inputs = load_inputs(w, args.dir);
  const std::size_t cpus = usable_cpus();
  const std::size_t workers = std::min(kWorkers, std::max<std::size_t>(1, cpus));
  std::size_t devices = 0;
  for (const SiteInputs& s : inputs.sites) devices += s.trace.device_count;

  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"build\": \"release\", "
      "\"simd\": \"%s\", \"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"workers\": %zu, \"devices\": %zu, \"input_digest\": \"%016llx\", "
      "\"input_bytes\": %llu}\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      loctk::simd::backend(), cpus, std::thread::hardware_concurrency(),
      workers, devices, static_cast<unsigned long long>(inputs.digest),
      static_cast<unsigned long long>(inputs.bytes));

  // --- Set-up: cold starts from the input files ----------------------
  std::vector<SetupTimes> setups;
  ServedSites sites;
  for (std::size_t r = 0; r < kSetupRuns; ++r) {
    const auto server = make_server(w);
    SetupTimes t;
    sites = cold_start(inputs, *server, &t);
    setups.push_back(t);
  }
  const ReplayPlan plan = make_plan(inputs, workers);
  const std::vector<DeviceTally> reference = reference_pass(w, plan, sites);
  std::uint64_t fix_digest = kFnvOffset;
  for (const DeviceTally& t : reference) {
    fix_digest = fnv1a({reinterpret_cast<const char*>(&t.digest), sizeof(t.digest)},
                       fix_digest);
  }
  // Equal across commits means the served fixes did not move.
  std::printf("fixes {\"reference_digest\": \"%016llx\", \"scans\": %llu}\n",
              static_cast<unsigned long long>(fix_digest),
              static_cast<unsigned long long>(plan.pass_scans));
  const bool check_fixes = w.republish_every_scans == 0;

  // One phase: a fresh server (its shard counters then count exactly
  // this phase), the office control plane beside the workers, and the
  // phase's output checks.
  const auto phase = [&](PhaseConfig config, const char* name,
                         bool traced_republish,
                         Republisher::Samples* republish = nullptr) {
    const auto server = make_server(w);
    publish(sites, *server);
    std::optional<Republisher> republisher;
    if (w.republish_every_scans > 0) {
      republisher.emplace(w, inputs, sites, *server, traced_republish);
      config.control = [&republisher](const auto& progress, const auto& done) {
        republisher->run(progress, done);
      };
    }
    PhaseResult result = run_phase(plan, *server, config);
    report.fail_all(result.violations);
    if (check_fixes) check_digests(name, result.devices, reference, report);
    if (republisher) {
      check_republish_count(*republisher, result.attempted,
                            w.republish_every_scans, report);
      check_delta_compile(*republisher, report);
      result.failed += republisher->samples().failed;
      if (republish != nullptr) *republish = republisher->samples();
    }
    return result;
  };
  // Warm-up: caches, lazily built tables and session cells, not reported.
  phase({.seconds = std::min(1.0, 0.1 * args.seconds)}, "warm-up",
        false);

  Totals totals;
  const bool e2e = args.trace == 0;

  if (e2e) {
    // Cold starts, saturate and paced segments alternate over the whole
    // run, so a stretch of the shared host running slow falls on each
    // of them alike instead of on one phase.
    const double burst_s = kSetupShare * args.seconds / kRounds;
    const double sat_s = kSaturateShare * args.seconds / kRounds;
    const double paced_s = kPacedShare * args.seconds / kRounds;
    const double window = paced_window_s(w.offered_scans_per_s);
    std::vector<double> setup_s;
    for (const SetupTimes& t : setups) setup_s.push_back(t.total_s);
    std::vector<double> batch_s;
    std::vector<double> paced_latency_s;
    std::vector<std::size_t> pass_steps;
    for (const std::vector<Step>& steps : plan.per_worker) {
      pass_steps.push_back(steps.size());
    }
    const auto slice_sends = static_cast<std::size_t>(
        kSliceSeconds * w.offered_scans_per_s / static_cast<double>(workers));
    SliceVisits slices(pass_steps, std::max(kMinSliceScans, slice_sends));
    std::vector<double> p90_windows;
    std::vector<double> republish_s;
    std::uint64_t sat_attempted = 0;
    std::uint64_t paced_attempted = 0;
    std::uint64_t slo_misses = 0;
    double rss_mb = 0.0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const Clock::time_point burst_end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(burst_s));
      do {
        const auto server = make_server(w);
        SetupTimes t;
        cold_start(inputs, *server, &t);
        setup_s.push_back(t.total_s);
      } while (Clock::now() < burst_end);

      Republisher::Samples sat_rep;
      Republisher::Samples paced_rep;
      const PhaseResult sat =
          phase({.seconds = sat_s}, "saturate", false, &sat_rep);
      // Read before the first paced segment, whose raw latency samples
      // belong to the benchmark, not to the server it measures.
      if (round == 0) rss_mb = peak_rss_mb();
      const PhaseResult paced = phase({.pacing = Pacing::kPaced,
                                       .seconds = paced_s,
                                       .offered_per_s = w.offered_scans_per_s},
                                      "paced", false, &paced_rep);
      totals.add(sat);
      totals.add(paced);
      sat_attempted += sat.attempted;
      paced_attempted += paced.attempted;
      slo_misses += paced.failed;
      for (double l : paced.latency_s) slo_misses += l > w.latency_limit_s;
      batch_s.insert(batch_s.end(), sat.batch_s.begin(), sat.batch_s.end());
      paced_latency_s.insert(paced_latency_s.end(), paced.latency_s.begin(),
                             paced.latency_s.end());
      slices.add_phase(paced.latency_s, paced.worker_samples);
      for (double p : window_percentiles(paced, paced_s, window, 0.90)) {
        p90_windows.push_back(p);
      }
      for (const Republisher::Samples* rep : {&sat_rep, &paced_rep}) {
        republish_s.insert(republish_s.end(), rep->republish_s.begin(),
                           rep->republish_s.end());
      }
    }

    // Other tenants of the host slow its memory for spells of a fraction
    // of a second to minutes, the cache-heavy cold start by up to half;
    // the fast 5% of a run's cold starts gives the program's own set-up
    // time, where the median moved by a third between sets of runs.
    report.add("setup_s", quantile(setup_s, kQuietQuantile), "s",
               setup_s.size(), true);
    report.add("setup_s.median", median(setup_s), "s", setup_s.size(), false);
    // Closed-loop throughput tracks the host's speed, which drifted by up
    // to a third between runs minutes apart: printed, not gated.
    report.add("scans_per_s", closed_loop_rate(batch_s, kBatchScans, workers),
               "scans/s", sat_attempted, false);
    // The same slow spells moved the median window p50 by up to a third
    // between runs. Per slice of the trace, the fast 5% of its visits
    // read the program's latency where the host let it run; slices, not
    // time windows, so that cheap stretches of the trace are not what
    // the low quantile picks.
    if (slices.visits() == 0) {
      report.fail("scan_p50_us: no slice of the trace was visited whole");
    } else {
      report.add("scan_p50_us", slices.median_of_slices(kQuietQuantile) * 1e6,
                 "us", slices.visits(), true);
      report.add("scan_p50_us.median", slices.median_of_slices(0.5) * 1e6,
                 "us", slices.visits(), false);
    }
    // Host pauses of tens of milliseconds (other tenants) leave backlogs
    // that set the paced tail on a shared host, so p90 and p99 are
    // printed but not gated.
    report.add_windowed("scan_p90_us", p90_windows, 1e6, "us",
                        paced_latency_s.size(), false);
    report.add_percentile("scan_p99_us", paced_latency_s, 0.99, 1e6, "us",
                          false);
    report.add("slo_miss_frac",
               static_cast<double>(slo_misses) /
                   static_cast<double>(paced_attempted),
               "ratio", paced_attempted, false);
    report.add("fail_frac",
               static_cast<double>(totals.failed) /
                   static_cast<double>(totals.attempted),
               "ratio", totals.attempted, false);
    add_accuracy(reference, report);
    report.add("peak_rss_mb", rss_mb, "MB", 1, true);
    if (!republish_s.empty()) {
      report.add_percentile("republish_ms_p50", republish_s, 0.50, 1e3, "ms",
                            false);
      report.add_percentile("republish_ms_p90", republish_s, 0.90, 1e3, "ms",
                            false);
    }
  } else {
    std::vector<double> load_ms, mb_per_s, generate_ms, compile_ms;
    for (const SetupTimes& t : setups) {
      load_ms.push_back(t.load_s * 1e3);
      mb_per_s.push_back(static_cast<double>(t.bytes_read) / 1e6 / t.load_s);
      generate_ms.push_back(t.generate_s * 1e3);
      compile_ms.push_back(t.compile_s * 1e3);
    }
    report.add("wiscan.load_ms", median(load_ms), "ms", load_ms.size(), true);
    report.add("wiscan.mb_per_s", median(mb_per_s), "MB/s", mb_per_s.size(),
               true);
    report.add("traindb.generate_ms", median(generate_ms), "ms",
               generate_ms.size(), true);
    report.add("core.compile_db_ms", median(compile_ms), "ms",
               compile_ms.size(), true);

    loctk::metrics::Counter& queries =
        loctk::metrics::counter("score.prune.queries");
    loctk::metrics::Counter& candidates =
        loctk::metrics::counter("score.prune.candidates_scored");
    loctk::metrics::Counter& fallbacks =
        loctk::metrics::counter("score.prune.fallback_full");
    // Untraced and traced phases alternate, so drift in the host's load
    // falls on both sides of trace.overhead_frac alike.
    const double half_s =
        0.25 * args.seconds / static_cast<double>(kTracePairs);
    std::vector<double> base_batches;
    std::vector<double> traced_batches;
    std::vector<double> span_p50s;
    std::vector<double> spans;
    Republisher::Samples lifecycle;
    double dq = 0.0;
    double dc = 0.0;
    double df = 0.0;
    for (std::size_t pair = 0; pair < kTracePairs; ++pair) {
      const PhaseResult base = phase({.seconds = half_s}, "saturate", false);
      const std::uint64_t q0 = queries.value();
      const std::uint64_t c0 = candidates.value();
      const std::uint64_t f0 = fallbacks.value();
      Republisher::Samples rep;
      const PhaseResult traced = phase({.seconds = half_s, .spans = true},
                                       "traced saturate", true, &rep);
      dq += static_cast<double>(queries.value() - q0);
      dc += static_cast<double>(candidates.value() - c0);
      df += static_cast<double>(fallbacks.value() - f0);
      totals.add(base);
      totals.add(traced);
      base_batches.insert(base_batches.end(), base.batch_s.begin(),
                          base.batch_s.end());
      traced_batches.insert(traced_batches.end(), traced.batch_s.begin(),
                            traced.batch_s.end());
      for (const double p :
           window_percentiles(traced, half_s, kSpanWindowSeconds, 0.50)) {
        span_p50s.push_back(p);
      }
      spans.insert(spans.end(), traced.latency_s.begin(),
                   traced.latency_s.end());
      for (auto [to, from] :
           {std::pair{&lifecycle.tick_s, &rep.tick_s},
            std::pair{&lifecycle.intake_s, &rep.intake_s},
            std::pair{&lifecycle.delta_compile_s, &rep.delta_compile_s},
            std::pair{&lifecycle.locator_build_s, &rep.locator_build_s},
            std::pair{&lifecycle.swap_s, &rep.swap_s},
            std::pair{&lifecycle.rebase_s, &rep.rebase_s}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
    }
    const PhaseResult paced = phase({.pacing = Pacing::kPaced,
                                     .seconds = 0.15 * args.seconds,
                                     .offered_per_s = w.offered_scans_per_s},
                                    "paced", false);
    totals.add(paced);

    report.add_windowed("serve.on_scan_us.p50", span_p50s, 1e6, "us",
                        spans.size(), true);
    report.add_percentile("serve.on_scan_us.p99", spans, 0.99, 1e6, "us",
                          true);
    report.add("serve.reader_stalls", static_cast<double>(totals.reader_stalls),
               "count", totals.attempted, false);
    report.add("serve.sessions_rejected",
               static_cast<double>(totals.sessions_rejected), "count",
               totals.attempted, false);
    report.add("serve.errors", static_cast<double>(totals.errors), "count",
               totals.attempted, false);
    report.add("core.prune.candidates_per_query", dq > 0 ? dc / dq : 0.0,
               "count", static_cast<std::size_t>(dq), false);
    report.add("core.prune.fallback_frac", dq > 0 ? df / dq : 0.0, "ratio",
               static_cast<std::size_t>(dq), false);
    const MicroSamples micro = probe_micro(workers, devices, 0.15 * args.seconds);
    report.add_percentile("serve.pin_ns.p50", micro.pin_s, 0.50, 1e9, "ns",
                          true);
    report.add_percentile("serve.session_ns.p50", micro.session_s, 0.50, 1e9,
                          "ns", true);
    report.add_percentile("base.metrics_record_ns.p50", micro.metrics_s, 0.50,
                          1e9, "ns", true);

    const StageSamples stages =
        probe_stages(inputs, sites, 0.2 * args.seconds);
    report.add_percentile("service.window_obs_us.p50", stages.window_obs_s,
                          0.50, 1e6, "us", true);
    report.add_percentile("core.compile_obs_us.p50", stages.compile_obs_s,
                          0.50, 1e6, "us", true);
    report.add_percentile("core.locate_us.p50", stages.locate_s, 0.50, 1e6,
                          "us", true);
    report.add_percentile("core.locate_dense_us.p50", stages.locate_dense_s,
                          0.50, 1e6, "us", true);
    report.add_percentile("core.kalman_ns.p50", stages.kalman_s, 0.50, 1e9,
                          "ns", true);
    // compile_observation runs inside try_locate, so it is not added
    // again; the window copy, session, pin and metrics are what is left.
    const double stage_sum_us =
        (median(stages.window_obs_s) + median(stages.locate_s) +
         median(stages.kalman_s)) *
        1e6;
    if (!span_p50s.empty()) {
      report.add("service.unattributed_us",
                 median(span_p50s) * 1e6 - stage_sum_us, "us", spans.size(),
                 true);
    }

    report.add_percentile("loadgen.lag_us.p99", paced.lag_s, 0.99, 1e6, "us",
                          true);
    report.add("trace.overhead_frac",
               1.0 - closed_loop_rate(traced_batches, kBatchScans, workers) /
                         closed_loop_rate(base_batches, kBatchScans, workers),
               "ratio", traced_batches.size(), true);

    if (w.republish_every_scans > 0) {
      const Republisher::Samples& s = lifecycle;
      report.add_percentile("lifecycle.tick_ms.p50", s.tick_s, 0.50, 1e3, "ms",
                            false);
      report.add_percentile("lifecycle.intake_us.p50", s.intake_s, 0.50, 1e6,
                            "us", false);
      report.add_percentile("core.delta_compile_ms.p50", s.delta_compile_s,
                            0.50, 1e3, "ms", false);
      report.add_percentile("core.locator_build_ms.p50", s.locator_build_s,
                            0.50, 1e3, "ms", false);
      report.add_percentile("serve.swap_us.p50", s.swap_s, 0.50, 1e6, "us",
                            false);
      report.add_percentile("lifecycle.rebase_ms.p50", s.rebase_s, 0.50, 1e3,
                            "ms", false);
    }
  }

  if (w.frames) {
    // The dashboard's static layer needs the campus model, rebuilt here
    // from the workload spec outside every timed region.
    const loctk::testkit::Scenario scenario(scenario_spec(w, args.seed, 0));
    const FrameSamples frames = run_frames(scenario, inputs.sites[0].trace);
    report.fail_all(frames.violations);
    if (e2e) {
      report.add_percentile("frame_ms_p50", frames.frame_s, 0.50, 1e3, "ms",
                            false);
    } else {
      report.add_percentile("testkit.frame_spec_ms.p50", frames.spec_s, 0.50,
                            1e3, "ms", false);
      report.add_percentile("floorplan.render_ms.p50", frames.render_s, 0.50,
                            1e3, "ms", false);
      report.add("floorplan.tiles_per_frame",
                 static_cast<double>(frames.tiles) /
                     static_cast<double>(frames.frame_s.size()),
                 "count", frames.frame_s.size(), false);
    }
  }
  return report.finish(totals.attempted, totals.failed);
}

void usage() {
  std::fprintf(stderr,
               "usage: scanbench synth --workload W --seed N --out DIR\n"
               "       scanbench run --workload W --seed N --seconds S "
               "--trace 0|1 --inputs DIR\n"
               "workloads:");
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "scanbench: refusing to record a debug build (NDEBUG unset)\n");
  return 2;
#endif
  const std::optional<Args> args = parse(argc, argv);
  const WorkloadSpec* w = args ? find_workload(args->workload) : nullptr;
  if (!args || w == nullptr || (args->mode != "synth" && args->mode != "run")) {
    usage();
    return 2;
  }
  try {
    if (args->mode == "synth") {
      synthesize(*w, args->seed, args->dir);
      return EXIT_SUCCESS;
    }
    return run(*args, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scanbench: %s\n", e.what());
    return EXIT_FAILURE;
  }
}

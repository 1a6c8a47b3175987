// Unit tests for the benchmark's wall-clock helpers (stats.hpp):
// percentiles, tail support, rates, due-time latency, windowing and the
// closed-loop batch rate.
// Plain checks, no framework: exits non-zero if any check fails.
//
//   cmake --build .bench_build/scanbench --target scanbench_stats_test
//   ctest --test-dir .bench_build/scanbench

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <class F>
bool throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentiles() {
  using namespace scanbench;
  // 1..100: nearest rank of p50 is 50, of p99 is 99.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(percentile_sorted(v, 0.50), 50.0), "p50 of 1..100 is 50");
  check(near(percentile_sorted(v, 0.90), 90.0), "p90 of 1..100 is 90");
  check(near(percentile_sorted(v, 0.99), 99.0), "p99 of 1..100 is 99");

  check(nearest_rank(1, 0.5) == 1, "one sample is its own median");
  check(nearest_rank(4, 0.0) == 1, "q = 0 clamps to the first rank");
  check(nearest_rank(4, 1.0) == 4, "q = 1 is the maximum");
  check(near(percentile_sorted({1.0, 2.0, 3.0, 4.0}, 0.5), 2.0),
        "even-count median takes the lower middle (nearest rank)");
  check(throws([] { (void)nearest_rank(0, 0.5); }), "empty input throws");
  check(throws([] { (void)nearest_rank(3, 1.5); }), "q > 1 throws");
  check(throws([] { (void)nearest_rank(3, std::nan("")); }), "NaN q throws");

  // The mean of a heavy-tailed set sits above its p99; the percentile
  // must come from the raw samples, not from the mean.
  std::vector<double> tail(1000, 1.0);
  tail.back() = 1.0e6;
  check(near(percentile_sorted(tail, 0.99), 1.0),
        "one outlier does not move p99 of 1000 samples");
}

void test_tail_support() {
  using namespace scanbench;
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  check(tail_supported(1000, 0.99), "p99 needs 1000 samples");
  check(!tail_supported(999, 0.99), "999 samples do not support p99");
  check(tail_supported(100, 0.90), "p90 needs 100 samples");
  check(!tail_supported(99, 0.90), "99 samples do not support p90");
  check(!tail_supported(0, 0.5), "no samples support nothing");
}

void test_rate() {
  using namespace scanbench;
  check(near(rate(500, 0.25), 2000.0), "rate is completed over wall seconds");
  check(near(rate(0, 1.0), 0.0), "no work is a zero rate");
  check(throws([] { (void)rate(1, 0.0); }), "zero wall time throws");
  check(throws([] { (void)rate(1, -1.0); }), "negative wall time throws");
}

void test_due_time_latency() {
  using namespace scanbench;
  using std::chrono::microseconds;
  const Clock::time_point t0{};
  const PacedSchedule sched{t0, 1000.0, 4};  // 1 ms between fleet sends
  check(sched.due(0, 0) == t0, "worker 0's first send is due at start");
  check(sched.due(1, 0) == t0 + microseconds(1000),
        "workers interleave one fleet interval apart");
  check(sched.due(0, 1) == t0 + microseconds(4000),
        "a worker's sends are `workers` intervals apart");
  check(sched.due(3, 2) == t0 + microseconds(11000),
        "due = (j * workers + w) / rate");

  // A request due at 1 ms that started late at 1.5 ms and took 0.2 ms
  // is charged 0.7 ms: the stall counts against it.
  const Clock::time_point due = sched.due(1, 0);
  const Clock::time_point done = t0 + microseconds(1700);
  check(near(latency_from_due(due, done), 700e-6),
        "latency is measured from the due time");
  check(latency_from_due(due, due) == 0.0, "on-time instant completion is 0");
}

void test_windows() {
  using namespace scanbench;
  // Two 1-s windows in a 2.5-s span (the partial third is dropped):
  // window 0 holds 1..4, window 1 holds 10..40, t = 2.2 falls outside.
  const std::vector<float> at = {0.1f, 0.2f, 0.3f, 0.4f, 1.1f, 1.2f,
                                 1.3f, 1.4f, 2.2f};
  const std::vector<double> v = {1, 2, 3, 4, 10, 20, 30, 40, 99};
  const std::vector<double> p50 = windowed_percentiles(at, v, 2.5, 1.0, 0.5, 1);
  check(p50.size() == 2, "only whole windows count");
  check(near(p50[0], 2.0) && near(p50[1], 20.0), "per-window nearest rank");
  check(windowed_percentiles(at, v, 2.5, 1.0, 0.5, 5).empty(),
        "windows below the sample floor are skipped");
  check(near(median({5.0, 1.0, 3.0}), 3.0), "median of window figures");
  check(near(quantile({5.0, 1.0, 3.0, 2.0}, 0.25), 1.0) &&
            near(quantile({5.0, 1.0, 3.0, 2.0}, 0.05), 1.0),
        "low quantile by nearest rank");
  check(throws([] { (void)median({}); }), "median of nothing throws");

  // Two workers; batches of 16 took 1, 2, 2, 3 and 100 ms (a pause):
  // the median batch runs at 8000/s per worker.
  const std::vector<double> batches = {1e-3, 2e-3, 2e-3, 3e-3, 100e-3};
  check(near(closed_loop_rate(batches, 16, 2), 16000.0),
        "closed-loop rate = workers x batch / median batch time");
  check(throws([] { (void)closed_loop_rate({}, 16, 2); }),
        "no batches throws");
}

void test_slice_visits() {
  using namespace scanbench;
  // Worker 0 replays a 4-step pass, worker 1 a 6-step one, in slices of 2
  // steps. Worker 0 sent 9 scans: two whole passes and one partial
  // visit; worker 1 sent 5: slice 2 was never visited whole.
  SliceVisits slices({4, 6}, 2);
  const std::vector<double> latency = {1, 2, 10, 20, 8, 9, 30, 40, 99,
                                       5, 6, 50, 60, 77};
  slices.add_phase(latency, {9, 5});
  check(slices.visits() == 6, "only whole visits count");
  // Visit p50s per slice: {1, 8}, {10, 30}, {5}, {50}.
  check(near(slices.median_of_slices(0.0), 5.0), "fastest visit per slice");
  check(near(slices.median_of_slices(1.0), 8.0), "slowest visit per slice");
  check(throws([&] { slices.add_phase(latency, {9, 4}); }) &&
            throws([&] { slices.add_phase(latency, {9, 6}); }),
        "sample counts must add up");
  check(throws([&] { slices.add_phase(latency, {14}); }),
        "one count per worker");
  check(throws([] { (void)SliceVisits({4}, 8).median_of_slices(0.5); }),
        "a pass shorter than a slice gives no figure");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_support();
  test_rate();
  test_due_time_latency();
  test_windows();
  test_slice_visits();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("scanbench_stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}

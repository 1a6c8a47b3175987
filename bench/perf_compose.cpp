// PERF_COMPOSE — fleet-frame composition time.
//
// Measures FleetCompositor::render against the serial per-call
// primitive path (render_serial) on a campus-scale frame: a
// 2-building campus plate (240 heat cells, 340 AP markers + labels)
// carrying 1,000 or 10,000 device markers — the per-tick visual
// `soak_fleet --server --campus-sites ... --frames` emits. Both paths
// produce byte-identical frames (tests/fleet_compositor_test.cpp), so
// the ratio of their wall times is pure speedup: span fills and
// prerendered marker stamps instead of per-pixel bounds-checked
// writes. Both draw text through draw_text.
//
// Also times draw_text, which blits prerendered glyph cells, against
// the per-pixel walk it replaced (testkit::reference_draw_text).
//
// Every entry runs on the wall clock with 5 repetitions
// (bench::wall_clock). CI smoke runs each benchmark briefly; the
// committed BENCH_compose.json in the repo root records the medians
// and CVs of a full run (gated on loctk_build_type == "release",
// bench_metrics.hpp).

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_metrics.hpp"
#include "floorplan/fleet_compositor.hpp"
#include "floorplan/heatmap.hpp"
#include "image/font.hpp"
#include "stats/rng.hpp"
#include "testkit/text_reference.hpp"

namespace {

using namespace loctk;
using floorplan::FleetCompositor;
using floorplan::FleetFrameSpec;

constexpr int kFrameWidth = 1116;   // 2 x 240ft + 60ft gap at 2 px/ft + margins
constexpr int kFrameHeight = 336;   // 150 ft at 2 px/ft + margins
constexpr int kHeatCells = 240;     // 2 buildings x 8x5 rooms x 3 floors
constexpr int kApLabels = 340;      // 2 buildings x 170 ground-floor APs

/// The synthetic campus-scale frame. Deterministic (seeded), built
/// without the scenario machinery so the bench measures composition,
/// not radio simulation.
FleetFrameSpec campus_frame(int device_markers) {
  stats::Rng rng(0xC0117);
  FleetFrameSpec spec;
  spec.width = kFrameWidth;
  spec.height = kFrameHeight;

  // Heat cells: 60x60 px rooms over both building plates.
  int cell = 0;
  for (int b = 0; b < 2 && cell < kHeatCells; ++b) {
    const int bx = 18 + b * 540;
    for (int ry = 0; ry < 5; ++ry) {
      for (int rx = 0; rx < 8 && cell < kHeatCells; ++rx) {
        spec.add_fill_rect(bx + rx * 60, 18 + ry * 60, 60, 60,
                           floorplan::heat_color(rng.uniform()));
        ++cell;
      }
    }
  }
  for (int b = 0; b < 2; ++b) {
    spec.add_rect(18 + b * 540, 18, 481, 301, image::colors::kBlack);
  }

  // AP markers + labels ("B1F0-AP169"-style names).
  for (int i = 0; i < kApLabels; ++i) {
    const int b = i < kApLabels / 2 ? 0 : 1;
    const int x = 18 + b * 540 + static_cast<int>(rng.uniform_int(4, 476));
    const int y = 18 + static_cast<int>(rng.uniform_int(4, 296));
    spec.add_marker(x, y, image::MarkerShape::kTriangle,
                    image::colors::kDarkGray, 3);
    spec.add_text(x + 4, y - 3,
                  "B" + std::to_string(b) + "F0-AP" +
                      std::to_string(i % (kApLabels / 2)),
                  image::colors::kDarkGray, 1);
  }

  // The fleet: device ground-truth dots, some past the plate edges.
  for (int i = 0; i < device_markers; ++i) {
    const int x = static_cast<int>(rng.uniform_int(-4, kFrameWidth + 4));
    const int y = static_cast<int>(rng.uniform_int(-4, kFrameHeight + 4));
    spec.add_marker(x, y, image::MarkerShape::kDot,
                    i % 2 == 0 ? image::colors::kBlue : image::colors::kRed,
                    2);
  }
  return spec;
}

void set_frame_counters(benchmark::State& state, const FleetFrameSpec& spec) {
  const double pixels = static_cast<double>(spec.width) *
                        static_cast<double>(spec.height);
  state.counters["pixels_per_s"] =
      benchmark::Counter(pixels, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ops_per_s"] =
      benchmark::Counter(static_cast<double>(spec.ops.size()),
                         benchmark::Counter::kIsIterationInvariantRate);
}

/// Baseline: the legacy per-call primitives, one pass.
void BM_ComposeFrame_PerCall(benchmark::State& state) {
  const FleetFrameSpec spec =
      campus_frame(static_cast<int>(state.range(0)));
  const FleetCompositor compositor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compositor.render_serial(spec));
  }
  set_frame_counters(state, spec);
}
BENCHMARK(BM_ComposeFrame_PerCall)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->Apply(bench::wall_clock);

/// The compositor's one pass (span fills, marker stamps, glyph-cell
/// text). Byte-identical output to the baseline.
void BM_ComposeFrame(benchmark::State& state) {
  const FleetFrameSpec spec =
      campus_frame(static_cast<int>(state.range(0)));
  const FleetCompositor compositor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compositor.render(spec));
  }
  set_frame_counters(state, spec);
}
BENCHMARK(BM_ComposeFrame)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)->Apply(bench::wall_clock);

/// The text path: one glyph-cell blit per character.
void BM_DrawText(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  image::Raster img(640, 480);
  // The first draw builds the glyph cells; keep it out of the timing.
  image::draw_text(img, 0, 0, "x", image::colors::kBlack, scale);
  for (auto _ : state) {
    for (int row = 0; row < 24; ++row) {
      image::draw_text(img, 3, row * 19, "B1F2-AP17 -54.3dBm",
                       image::colors::kBlack, scale);
    }
    benchmark::DoNotOptimize(img.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["glyphs_per_s"] = benchmark::Counter(
      24.0 * 18.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DrawText)->Arg(1)->Arg(2)->Apply(bench::wall_clock);

/// The per-pixel walk draw_text replaced, kept as its test oracle.
void BM_DrawText_Reference(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  image::Raster img(640, 480);
  for (auto _ : state) {
    for (int row = 0; row < 24; ++row) {
      testkit::reference_draw_text(img, 3, row * 19, "B1F2-AP17 -54.3dBm",
                                   image::colors::kBlack, scale);
    }
    benchmark::DoNotOptimize(img.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["glyphs_per_s"] = benchmark::Counter(
      24.0 * 18.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DrawText_Reference)->Arg(1)->Arg(2)->Apply(bench::wall_clock);

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_compose")

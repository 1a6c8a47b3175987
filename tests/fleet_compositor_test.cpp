// The fleet compositor's one pass against the serial reference built
// from the legacy per-call primitives: byte-identical on a dense frame
// exercising every op kind and every blit path, on degenerate frames,
// and on every tick of a small campus scenario.

#include "floorplan/fleet_compositor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.hpp"
#include "testkit/fleet_frame.hpp"
#include "testkit/scenario.hpp"

namespace loctk::floorplan {
namespace {

::testing::AssertionResult same_raster(const image::Raster& a,
                                       const image::Raster& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.width() << "x" << a.height() << " vs "
           << b.width() << "x" << b.height();
  }
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      if (!(a.at(x, y) == b.at(x, y))) {
        return ::testing::AssertionFailure()
               << "first differing pixel at (" << x << ", " << y << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// A frame exercising every op kind, with overlap (later ops must
/// win), clipping at the raster edges, and every blit size the
/// compositor unrolls: 3/5/7/9-px marker stamps and scale 1-4 glyphs,
/// plus a scale-5 label, which has no glyph cells.
FleetFrameSpec dense_frame() {
  FleetFrameSpec spec;
  spec.width = 300;
  spec.height = 200;
  spec.background = image::colors::kWhite;

  // Overlapping heat cells, one clipped.
  spec.add_fill_rect(40, 40, 60, 50, image::colors::kYellow);
  spec.add_fill_rect(60, 60, 60, 50, image::colors::kOrange);
  spec.add_fill_rect(-20, 180, 80, 60, image::colors::kCyan);  // clipped
  spec.add_rect(10, 10, 280, 180, image::colors::kBlack);
  spec.add_rect(62, 62, 4, 4, image::colors::kPurple);

  // Lines across the frame, plus a dashed one.
  spec.add_line(0, 0, 299, 199, image::colors::kBlue);
  spec.add_line(299, 0, 0, 199, image::colors::kRed, /*dashed=*/true, 5, 3);
  spec.add_line(128, -10, 128, 210, image::colors::kDarkGray);

  // Markers of every shape at radii 2-5, scattered over the frame and
  // past its edges.
  const image::MarkerShape shapes[] = {
      image::MarkerShape::kCross,        image::MarkerShape::kX,
      image::MarkerShape::kSquare,       image::MarkerShape::kFilledSquare,
      image::MarkerShape::kDiamond,      image::MarkerShape::kCircle,
      image::MarkerShape::kDot,          image::MarkerShape::kTriangle,
  };
  stats::Rng rng(0xF1EE7);
  int shape_index = 0;
  for (int i = 0; i < 120; ++i) {
    const int x = static_cast<int>(rng.uniform_int(-6, 306));
    const int y = static_cast<int>(rng.uniform_int(-6, 206));
    spec.add_marker(x, y, shapes[shape_index % 8],
                    image::colors::kGreen, 2 + (i % 4));
    ++shape_index;
  }
  for (int b = 64; b < 300; b += 64) {
    spec.add_marker(b, 64, shapes[shape_index++ % 8],
                    image::colors::kRed, 5);
    spec.add_marker(b - 1, 128, shapes[shape_index++ % 8],
                    image::colors::kBlue, 5);
  }
  // Radius 1, the 3x3 stamp: every shape inside the frame, and one
  // clipped at the right edge.
  for (int s = 0; s < 8; ++s) {
    spec.add_marker(20 + 9 * s, 150, shapes[s], image::colors::kPurple, 1);
  }
  spec.add_marker(299, 150, image::MarkerShape::kFilledSquare,
                  image::colors::kPurple, 1);

  // Labels at every glyph-cell scale, clipped at the left, top and
  // bottom-right edges, and one past the cells (the per-pixel walk).
  spec.add_text(60, 60, "B0F0-AP17", image::colors::kBlack, 1);
  spec.add_text(120, 120, "seam\nstraddler", image::colors::kRed, 2);
  spec.add_text(-8, 100, "left clip", image::colors::kBlue, 3);
  spec.add_text(280, 190, "corner", image::colors::kDarkGray, 4);
  spec.add_text(100, -5, "top clip", image::colors::kPurple, 1);
  spec.add_text(150, 20, "X5", image::colors::kGreen, 5);
  return spec;
}

// The core identity: the one-pass render produces the same bytes as
// the serial legacy-primitive reference.
TEST(FleetCompositor, RenderMatchesSerialReference) {
  const FleetFrameSpec spec = dense_frame();
  const FleetCompositor compositor;
  EXPECT_TRUE(same_raster(compositor.render(spec),
                          compositor.render_serial(spec)));
}

TEST(FleetCompositor, EmptyAndDegenerateFrames) {
  const FleetCompositor compositor;
  EXPECT_EQ(compositor.render(FleetFrameSpec{}).width(), 0);
  FleetFrameSpec no_ops;
  no_ops.width = 33;
  no_ops.height = 17;
  no_ops.background = image::colors::kCyan;
  const image::Raster out = compositor.render(no_ops);
  EXPECT_TRUE(same_raster(out, compositor.render_serial(no_ops)));
  EXPECT_EQ(out.at(32, 16), image::colors::kCyan);
}

// A real (small) campus frame, per tick, with devices walking across
// the plate: render equals the serial reference on every tick.
TEST(FleetCompositor, CampusFrameMatchesSerialReferenceEveryTick) {
  radio::CampusSpec campus;
  campus.buildings = 2;
  campus.floors_per_building = 1;
  campus.floor_width_ft = 60.0;
  campus.floor_depth_ft = 40.0;
  campus.rooms_x = 3;
  campus.rooms_y = 2;
  campus.aps_per_floor = 6;
  campus.building_gap_ft = 20.0;
  testkit::ScenarioSpec spec =
      testkit::ScenarioSpec::campus_fleet(8, 4, /*seed=*/7, campus);
  spec.train_scans = 2;
  const testkit::Scenario scenario(spec);
  const testkit::ScanTrace trace = scenario.record_trace();

  const testkit::FleetFrameBuilder frames(scenario);
  ASSERT_GT(frames.tick_count(trace), 0u);
  ASSERT_GT(frames.base().ops.size(), 10u);

  const FleetCompositor compositor;
  for (std::size_t tick = 0; tick < frames.tick_count(trace); ++tick) {
    const FleetFrameSpec frame = frames.frame(trace, tick);
    EXPECT_TRUE(same_raster(compositor.render(frame),
                            compositor.render_serial(frame)))
        << "tick " << tick;
  }
}

}  // namespace
}  // namespace loctk::floorplan

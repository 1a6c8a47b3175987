#pragma once

/// \file fleet_compositor.hpp
/// Frame composition for fleet-scale visualization.
///
/// The paper's Compositor (§4.2) draws a handful of marks on one
/// floor plan; a campus soak wants a frame per tick carrying a
/// coverage heatmap, a thousand AP labels, and ten thousand device
/// markers. `FleetCompositor` renders such frames from a deferred
/// draw list (`FleetFrameSpec`) in one pass over the ops into one
/// raster, in op order, so a pixel's final color is the last op
/// covering it — exactly what the legacy per-call primitives produce
/// (`render_serial`, the byte-identity oracle the quick tier checks).
///
/// Speed comes from drawing the frequent kinds without per-pixel
/// bounds checks: fills are row spans and markers are prerendered
/// stamps through `image::blit_mask`. Text goes through
/// `image::draw_text` in both renders; it blits prerendered glyph cells
/// through the same primitive (docs/VISUALIZATION.md).

#include <cstdint>
#include <string>
#include <vector>

#include "image/draw.hpp"
#include "image/raster.hpp"

namespace loctk::floorplan {

/// One deferred drawing command, in pixel space. Ops are opaque
/// (no alpha): later ops overwrite earlier ones where they overlap.
struct FrameOp {
  enum class Kind : std::uint8_t {
    kFillRect,  ///< solid axis-aligned rect (heatmap cells)
    kRect,      ///< rect outline (building footprints, legends)
    kLine,      ///< thin Bresenham line, optionally dashed
    kMarker,    ///< one marker glyph (device dots, AP triangles)
    kText,      ///< multi-line label (`image::draw_text`)
  };

  Kind kind = Kind::kFillRect;
  image::Color color;
  int x = 0;  ///< top-left (rects/text), first endpoint (lines), center (markers)
  int y = 0;
  int w = 0;  ///< rects only
  int h = 0;
  int x2 = 0;  ///< lines only: second endpoint
  int y2 = 0;
  int radius = 4;                                      ///< markers only
  image::MarkerShape shape = image::MarkerShape::kDot; ///< markers only
  int scale = 1;                                       ///< text only
  bool dashed = false;                                 ///< lines only
  int dash_on = 4;
  int dash_off = 4;
  std::string text;  ///< text only
};

/// A frame to composite: canvas size, background, and the draw list.
struct FleetFrameSpec {
  int width = 0;
  int height = 0;
  image::Color background = image::colors::kWhite;
  std::vector<FrameOp> ops;

  void add_fill_rect(int x, int y, int w, int h, image::Color c);
  void add_rect(int x, int y, int w, int h, image::Color c);
  void add_line(int x0, int y0, int x1, int y1, image::Color c,
                bool dashed = false, int on = 4, int off = 4);
  void add_marker(int cx, int cy, image::MarkerShape shape, image::Color c,
                  int radius = 4);
  void add_text(int x, int y, std::string text, image::Color c,
                int scale = 1);
};

class FleetCompositor {
 public:
  /// One pass over `spec.ops` into one raster. Byte-identical to
  /// `render_serial`.
  image::Raster render(const FleetFrameSpec& spec) const;

  /// Reference: replays the ops through the legacy per-call
  /// primitives (`fill_rect`, `draw_marker`; text through the same
  /// `draw_text` as `render`). This is the byte-identity oracle of
  /// `render` and the baseline `bench/perf_compose` measures it
  /// against.
  image::Raster render_serial(const FleetFrameSpec& spec) const;
};

}  // namespace loctk::floorplan

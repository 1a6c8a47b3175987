#pragma once

/// \file draw.hpp
/// Rasterized drawing primitives over `Raster`.
///
/// Everything clips against the image bounds, so callers can draw
/// markers near (or past) the edge without pre-clipping — the
/// Compositor relies on this when estimated locations land outside
/// the floor plan.

#include <cstdint>

#include "image/raster.hpp"

namespace loctk::image {

/// Marker glyph shapes used by the Compositor to distinguish true
/// locations, estimates, and access points.
enum class MarkerShape {
  kCross,        ///< '+'
  kX,            ///< 'x'
  kSquare,       ///< hollow square
  kFilledSquare,
  kDiamond,      ///< hollow diamond
  kCircle,       ///< hollow circle
  kDot,          ///< filled circle
  kTriangle,     ///< hollow upward triangle
};

/// Bresenham line from (x0,y0) to (x1,y1).
void draw_line(Raster& img, int x0, int y0, int x1, int y1, Color c);

/// Line of odd thickness `t` pixels (1 behaves like draw_line).
void draw_thick_line(Raster& img, int x0, int y0, int x1, int y1, Color c,
                     int t);

/// Dashed line: `on` pixels drawn, `off` skipped, repeating.
void draw_dashed_line(Raster& img, int x0, int y0, int x1, int y1, Color c,
                      int on = 4, int off = 4);

/// Axis-aligned rectangle outline, corners included.
void draw_rect(Raster& img, int x, int y, int w, int h, Color c);

/// Filled axis-aligned rectangle.
void fill_rect(Raster& img, int x, int y, int w, int h, Color c);

/// Midpoint circle outline.
void draw_circle(Raster& img, int cx, int cy, int radius, Color c);

/// Filled circle.
void fill_circle(Raster& img, int cx, int cy, int radius, Color c);

/// One marker glyph centered at (cx, cy) with half-size `r`.
void draw_marker(Raster& img, int cx, int cy, MarkerShape shape, Color c,
                 int r = 4);

/// Paints `c` over each pixel of the w x h window with top-left corner
/// (x, y) whose mask byte is nonzero; mask rows are `mask_stride` bytes
/// apart. Clipped to the raster. Prerendered marker stamps and glyph
/// cells draw through this: an unclipped 3/5/7/9-px square or
/// 5x7 * scale (scale 1..4) window takes a blit with compile-time
/// bounds, which the optimizer fully unrolls.
void blit_mask(Raster& img, int x, int y, const std::uint8_t* mask,
               int mask_stride, int w, int h, Color c);

}  // namespace loctk::image

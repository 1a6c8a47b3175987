#pragma once

/// \file font.hpp
/// A built-in 5x7 bitmap font for labels on composited floor plans.
///
/// The Floor Plan Compositor labels access points and named locations
/// (paper §4.2, Figure 3); this tiny fixed-width font keeps the image
/// pipeline dependency-free. Glyphs cover printable ASCII 32..126;
/// anything else renders as the replacement box.

#include <string_view>

#include "image/raster.hpp"

namespace loctk::image {

inline constexpr int kGlyphWidth = 5;
inline constexpr int kGlyphHeight = 7;
/// Horizontal advance between characters (glyph + 1px spacing).
inline constexpr int kGlyphAdvance = kGlyphWidth + 1;
/// Vertical advance between lines.
inline constexpr int kLineAdvance = kGlyphHeight + 2;

/// True when the font has a real glyph for `ch`.
bool has_glyph(char ch);

/// Whether the glyph for `ch` has the pixel at (col, row) set;
/// unknown characters use the replacement box. col in [0,5), row in
/// [0,7).
bool glyph_pixel(char ch, int col, int row);

/// Highest scale drawn from prerendered glyph cells. Every glyph is
/// rendered once, on first use, at scales 1..kMaxCellScale into a
/// 5s x 7s byte mask; larger scales walk the font per pixel.
inline constexpr int kMaxCellScale = 4;

/// Draws one character with top-left corner at (x, y), scaled by
/// `scale` (each font pixel becomes scale x scale device pixels;
/// scale < 1 draws at 1). Clipped to the raster. At scales up to
/// kMaxCellScale this is one `blit_mask` of the glyph's cell.
void draw_char(Raster& img, int x, int y, char ch, Color c, int scale = 1);

/// Draws a (possibly multi-line, '\n'-separated) string; returns the
/// width in pixels of the longest line drawn. Every label in the
/// toolkit, the fleet compositor's included, is drawn here.
///
/// Trailing-empty-line contract (pinned by regression tests): a
/// trailing '\n' starts a final empty line that contributes nothing to
/// the returned width, while `text_height` counts it as a full line —
/// "AB\n" measures two lines tall but returns the width of "AB".
int draw_text(Raster& img, int x, int y, std::string_view text, Color c,
              int scale = 1);

/// Pixel width the string would occupy (longest line). A trailing
/// '\n' adds no width (its line is empty).
int text_width(std::string_view text, int scale = 1);

/// Pixel height the string would occupy (line count dependent). Every
/// '\n' adds a line, so a trailing '\n' counts as a final empty line.
int text_height(std::string_view text, int scale = 1);

}  // namespace loctk::image

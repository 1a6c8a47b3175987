#pragma once

/// \file text_reference.hpp
/// The per-pixel text oracle for `image::draw_text`.
///
/// `draw_text` blits each character's prerendered glyph cell at scales
/// 1..`image::kMaxCellScale` (src/image/font.cpp). This is the text
/// path it replaced, kept as readable executable documentation: every
/// font pixel is read through `image::glyph_pixel` and each inked one
/// is written as a scale x scale block of clipped `set_pixel` calls. It
/// shares no drawing code with `draw_char`, so the two can be raced on
/// the same text: same bytes in the raster, same returned width.

#include <string_view>

#include "image/raster.hpp"

namespace loctk::testkit {

/// `image::draw_text` by the per-pixel walk: same layout (advance,
/// newline, scale < 1 drawn at 1), same clipping, same return value
/// (the width in pixels of the longest line).
int reference_draw_text(image::Raster& img, int x, int y,
                        std::string_view text, image::Color c,
                        int scale = 1);

}  // namespace loctk::testkit

#include "testkit/text_reference.hpp"

#include <algorithm>

#include "image/font.hpp"

namespace loctk::testkit {

int reference_draw_text(image::Raster& img, int x, int y,
                        std::string_view text, image::Color c, int scale) {
  scale = std::max(1, scale);
  int cx = x;
  int cy = y;
  int max_width = 0;
  for (const char ch : text) {
    if (ch == '\n') {
      max_width = std::max(max_width, cx - x);
      cx = x;
      cy += image::kLineAdvance * scale;
      continue;
    }
    for (int row = 0; row < image::kGlyphHeight; ++row) {
      for (int col = 0; col < image::kGlyphWidth; ++col) {
        if (!image::glyph_pixel(ch, col, row)) continue;
        for (int dy = 0; dy < scale; ++dy) {
          for (int dx = 0; dx < scale; ++dx) {
            img.set_pixel(cx + col * scale + dx, cy + row * scale + dy, c);
          }
        }
      }
    }
    cx += image::kGlyphAdvance * scale;
  }
  return std::max(max_width, cx - x);
}

}  // namespace loctk::testkit

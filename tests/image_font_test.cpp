// Unit tests for the built-in 5x7 bitmap font.

#include "image/font.hpp"

#include <gtest/gtest.h>

namespace loctk::image {
namespace {

TEST(Font, GlyphCoverage) {
  for (int c = 32; c <= 126; ++c) {
    EXPECT_TRUE(has_glyph(static_cast<char>(c))) << "char " << c;
  }
  EXPECT_FALSE(has_glyph('\n'));
  EXPECT_FALSE(has_glyph('\t'));
  EXPECT_FALSE(has_glyph(static_cast<char>(200)));
}

TEST(Font, SpaceIsEmptyEverythingElseInked) {
  auto ink = [](char ch) {
    int count = 0;
    for (int r = 0; r < kGlyphHeight; ++r) {
      for (int c = 0; c < kGlyphWidth; ++c) {
        if (glyph_pixel(ch, c, r)) ++count;
      }
    }
    return count;
  };
  EXPECT_EQ(ink(' '), 0);
  for (int c = 33; c <= 126; ++c) {
    EXPECT_GT(ink(static_cast<char>(c)), 0) << "char " << c;
  }
}

TEST(Font, DistinctGlyphs) {
  // Commonly-confused pairs must differ.
  auto same = [](char a, char b) {
    for (int r = 0; r < kGlyphHeight; ++r) {
      for (int c = 0; c < kGlyphWidth; ++c) {
        if (glyph_pixel(a, c, r) != glyph_pixel(b, c, r)) return false;
      }
    }
    return true;
  };
  EXPECT_FALSE(same('0', 'O'));
  EXPECT_FALSE(same('1', 'l'));
  EXPECT_FALSE(same('I', 'l'));
  EXPECT_FALSE(same('5', 'S'));
  EXPECT_FALSE(same('8', 'B'));
}

TEST(Font, GlyphPixelOutOfRangeIsFalse) {
  EXPECT_FALSE(glyph_pixel('A', -1, 0));
  EXPECT_FALSE(glyph_pixel('A', 5, 0));
  EXPECT_FALSE(glyph_pixel('A', 0, 7));
}

TEST(Font, UnknownCharRendersReplacementBox) {
  // The box has its whole top row set.
  for (int c = 0; c < kGlyphWidth; ++c) {
    EXPECT_TRUE(glyph_pixel('\x01', c, 0));
    EXPECT_TRUE(glyph_pixel('\x01', c, kGlyphHeight - 1));
  }
}

TEST(DrawChar, PaintsInkAtOffset) {
  Raster img(20, 20);
  draw_char(img, 5, 5, 'I', colors::kBlack);
  // 'I' has its middle column set through the middle rows.
  EXPECT_EQ(img.at(5 + 2, 5 + 3), colors::kBlack);
  EXPECT_GT(img.count_pixels(colors::kBlack), 5u);
}

TEST(DrawChar, ScaleMultipliesInk) {
  Raster s1(60, 60), s3(60, 60);
  draw_char(s1, 0, 0, 'H', colors::kBlack, 1);
  draw_char(s3, 0, 0, 'H', colors::kBlack, 3);
  EXPECT_EQ(s3.count_pixels(colors::kBlack),
            9u * s1.count_pixels(colors::kBlack));
}

TEST(DrawText, AdvancesAndReturnsWidth) {
  Raster img(100, 20);
  const int w = draw_text(img, 0, 0, "AB", colors::kBlack);
  EXPECT_EQ(w, 2 * kGlyphAdvance);
  // Second glyph starts at x = kGlyphAdvance.
  EXPECT_GT(img.crop(kGlyphAdvance, 0, kGlyphWidth, kGlyphHeight)
                .count_pixels(colors::kBlack),
            0u);
}

TEST(DrawText, MultilineBreaks) {
  Raster img(100, 40);
  draw_text(img, 0, 0, "A\nB", colors::kBlack);
  // Ink appears on the second line band.
  const Raster line2 = img.crop(0, kLineAdvance, 10, kGlyphHeight);
  EXPECT_GT(line2.count_pixels(colors::kBlack), 0u);
}

TEST(TextMetrics, WidthAndHeight) {
  EXPECT_EQ(text_width(""), 0);
  EXPECT_EQ(text_width("abc"), 3 * kGlyphAdvance);
  EXPECT_EQ(text_width("ab\nabcd"), 4 * kGlyphAdvance);
  EXPECT_EQ(text_height("x"), kGlyphHeight);
  EXPECT_EQ(text_height("x\ny"), kLineAdvance + kGlyphHeight);
  EXPECT_EQ(text_width("ab", 2), 2 * 2 * kGlyphAdvance);
}

// Pins the trailing-empty-line contract (font.hpp): a trailing '\n'
// starts a final empty line that contributes nothing to draw_text's
// returned width, while text_height counts it as a full extra line.
// The per-pixel testkit reference follows the same contract (asserted
// in image_text_test.cpp), so this is the single place the behavior is
// allowed to change.
TEST(DrawText, TrailingNewlineAddsNoWidthButCountsAsALine) {
  Raster img(100, 40);
  EXPECT_EQ(draw_text(img, 0, 0, "AB\n", colors::kBlack),
            draw_text(img, 0, 0, "AB", colors::kBlack));
  EXPECT_EQ(text_width("AB\n"), text_width("AB"));
  EXPECT_EQ(text_height("AB\n"), kLineAdvance + kGlyphHeight);
  EXPECT_EQ(text_height("AB"), kGlyphHeight);

  // Interior empty lines behave the same way: no width, full height.
  EXPECT_EQ(draw_text(img, 0, 0, "AB\n\n\n", colors::kBlack),
            2 * kGlyphAdvance);
  EXPECT_EQ(text_width("AB\n\n\n"), 2 * kGlyphAdvance);
  EXPECT_EQ(text_height("AB\n\n\n"), 3 * kLineAdvance + kGlyphHeight);

  // A newline-only string draws nothing and has zero width, yet
  // measures two lines tall.
  Raster blank(30, 30);
  EXPECT_EQ(draw_text(blank, 0, 0, "\n", colors::kBlack), 0);
  EXPECT_EQ(blank.count_pixels(colors::kBlack), 0u);
  EXPECT_EQ(text_width("\n"), 0);
  EXPECT_EQ(text_height("\n"), kLineAdvance + kGlyphHeight);

  // The contract scales with the glyph scale.
  EXPECT_EQ(text_width("AB\n", 3), text_width("AB", 3));
  EXPECT_EQ(text_height("AB\n", 3), 3 * (kLineAdvance + kGlyphHeight));
}

TEST(DrawText, ClipsAtBorders) {
  Raster img(10, 10);
  draw_text(img, 7, 7, "WWW", colors::kBlack);  // mostly off canvas
  draw_text(img, -3, -3, "WWW", colors::kBlack);
  SUCCEED();  // no crash, clipped writes ignored
}

}  // namespace
}  // namespace loctk::image

// draw_text, which blits prerendered glyph cells, against the per-pixel
// walk it replaced (testkit/text_reference.hpp): the same bytes and the
// same returned width for every byte value at every scale the cells
// cover and one past them, for multi-line and trailing-newline
// strings, for text clipped at each raster edge and corner, and for
// text drawn from several threads at once. The cells are built on
// first use, and ctest runs each case in its own process, so every
// case here is also the first use of the cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "image/font.hpp"
#include "testkit/text_reference.hpp"

namespace loctk::image {
namespace {

/// Byte equality with a first-differing-pixel diagnostic.
::testing::AssertionResult same_raster(const Raster& a, const Raster& b) {
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

/// Scales below 1 draw at 1, 1..kMaxCellScale blit cells, and
/// kMaxCellScale + 1 walks the font per pixel.
std::vector<int> all_scales() {
  std::vector<int> scales;
  for (int scale = -1; scale <= kMaxCellScale + 1; ++scale) {
    scales.push_back(scale);
  }
  return scales;
}

TEST(TextReference, EveryByteAtEveryScale) {
  for (const int scale : all_scales()) {
    const int s = std::max(1, scale);
    const int w = kGlyphAdvance * s + 4;
    const int h = kGlyphHeight * s + 4;
    for (int code = 0; code < 256; ++code) {
      const std::string text(1, static_cast<char>(code));
      Raster drawn(w, h);
      Raster reference(w, h);
      const int rd = draw_text(drawn, 2, 2, text, colors::kBlue, scale);
      const int rr = testkit::reference_draw_text(reference, 2, 2, text,
                                                  colors::kBlue, scale);
      EXPECT_EQ(rd, rr) << "byte " << code << " scale " << scale;
      EXPECT_TRUE(same_raster(drawn, reference))
          << "byte " << code << " scale " << scale;
    }
  }
}

TEST(TextReference, MultilineAndTrailingNewlines) {
  const std::string texts[] = {
      "AP-17\nB1F2\t\x7f!", "AB\n", "AB\n\n\n", "\n", "", "\nX",
      "x\n\nyz\n",          std::string("a\0b\n\xff", 5),
  };
  for (const int scale : all_scales()) {
    for (const std::string& text : texts) {
      Raster drawn(160, 180);
      Raster reference(160, 180);
      const int rd = draw_text(drawn, 3, 5, text, colors::kBlack, scale);
      const int rr = testkit::reference_draw_text(reference, 3, 5, text,
                                                  colors::kBlack, scale);
      EXPECT_EQ(rd, rr) << "scale " << scale << " text \"" << text << '"';
      EXPECT_TRUE(same_raster(drawn, reference))
          << "scale " << scale << " text \"" << text << '"';
    }
  }
}

// Text overhanging each of the four raster edges and all four corners
// clips to the same bytes, and text entirely off the raster draws
// nothing and still reports its width.
TEST(TextReference, ClippedAtEveryEdgeAndCorner) {
  const std::string text = "Wg#\x01\nq";
  for (const int scale : all_scales()) {
    const int tw = text_width(text, scale);
    const int th = text_height(text, scale);
    const int w = tw + 8;
    const int h = th + 8;
    const struct {
      const char* where;
      int x, y;
    } cases[] = {
        {"left", -tw / 2, 4},
        {"right", w - tw / 2, 4},
        {"top", 4, -th / 2},
        {"bottom", 4, h - th / 2},
        {"top-left", -tw / 2, -th / 2},
        {"top-right", w - tw / 2, -th / 2},
        {"bottom-left", -tw / 2, h - th / 2},
        {"bottom-right", w - tw / 2, h - th / 2},
        {"fully-off", -10 * tw, -10 * th},
    };
    for (const auto& c : cases) {
      Raster drawn(w, h);
      Raster reference(w, h);
      const int rd = draw_text(drawn, c.x, c.y, text, colors::kRed, scale);
      const int rr = testkit::reference_draw_text(reference, c.x, c.y, text,
                                                  colors::kRed, scale);
      EXPECT_EQ(rd, rr) << c.where << " scale " << scale;
      EXPECT_TRUE(same_raster(drawn, reference))
          << c.where << " scale " << scale;
    }
  }
}

// Four threads draw text at scales 1..kMaxCellScale at the same time,
// each into its own raster and each starting at a different scale, so
// their first draws race to build the cells. Every raster must equal
// the reference. The CI thread-sanitize job runs this suite.
TEST(TextReference, FourThreadsDrawAtOnce) {
  constexpr int kThreads = 4;
  std::string text;
  for (int code = 0; code < 256; ++code) {
    if (code % 32 == 0 && code > 0) text += '\n';
    if (code != '\n') text += static_cast<char>(code);
  }
  const int band = text_height(text, kMaxCellScale) + 2;
  const int width = text_width(text, kMaxCellScale) + 4;
  const int height = band * kMaxCellScale;
  auto draw_all = [&](auto draw, Raster& img, int first_scale) {
    for (int i = 0; i < kMaxCellScale; ++i) {
      const int scale = (first_scale + i) % kMaxCellScale + 1;
      draw(img, 2, (scale - 1) * band, text, colors::kPurple, scale);
    }
  };

  std::vector<Raster> drawn(kThreads, Raster(width, height));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      draw_all(
          [](Raster& img, int x, int y, std::string_view s, Color c,
             int scale) { draw_text(img, x, y, s, c, scale); },
          drawn[static_cast<std::size_t>(t)], t);
    });
  }
  for (std::thread& thread : threads) thread.join();

  Raster reference(width, height);
  draw_all(
      [](Raster& img, int x, int y, std::string_view s, Color c, int scale) {
        testkit::reference_draw_text(img, x, y, s, c, scale);
      },
      reference, 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(same_raster(drawn[static_cast<std::size_t>(t)], reference))
        << "thread " << t;
  }
}

}  // namespace
}  // namespace loctk::image

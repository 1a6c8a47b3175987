#include "image/draw.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "image/font.hpp"

namespace loctk::image {

namespace {

/// Masked blit with compile-time bounds. The constant trip counts are
/// the point: the optimizer fully unrolls both loops, which runtime
/// bounds defeat. The select writes a masked-off pixel's own value
/// back, which is byte-neutral because the caller checked that the
/// whole window lies inside the raster.
template <int W, int H>
void blit_mask_fixed(Color* dst0, std::ptrdiff_t stride,
                     const std::uint8_t* mask, int mask_stride, Color c) {
  for (int y = 0; y < H; ++y) {
    Color* dst = dst0 + y * stride;
    const std::uint8_t* m =
        mask + static_cast<std::ptrdiff_t>(y) * mask_stride;
    for (int x = 0; x < W; ++x) {
      dst[x] = m[x] != 0 ? c : dst[x];
    }
  }
}

constexpr std::uint64_t size_key(int w, int h) {
  return static_cast<std::uint64_t>(w) << 32 | static_cast<std::uint32_t>(h);
}

}  // namespace

void draw_line(Raster& img, int x0, int y0, int x1, int y1, Color c) {
  int dx = std::abs(x1 - x0);
  int dy = -std::abs(y1 - y0);
  const int sx = x0 < x1 ? 1 : -1;
  const int sy = y0 < y1 ? 1 : -1;
  int err = dx + dy;
  for (;;) {
    img.set_pixel(x0, y0, c);
    if (x0 == x1 && y0 == y1) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

void draw_thick_line(Raster& img, int x0, int y0, int x1, int y1, Color c,
                     int t) {
  if (t <= 1) {
    draw_line(img, x0, y0, x1, y1, c);
    return;
  }
  const int half = t / 2;
  // Offset parallel lines along the minor axis; for short fat lines
  // also stamp disks at the endpoints so joints look solid.
  const bool steep = std::abs(y1 - y0) > std::abs(x1 - x0);
  for (int o = -half; o <= half; ++o) {
    if (steep) {
      draw_line(img, x0 + o, y0, x1 + o, y1, c);
    } else {
      draw_line(img, x0, y0 + o, x1, y1 + o, c);
    }
  }
  fill_circle(img, x0, y0, half, c);
  fill_circle(img, x1, y1, half, c);
}

void draw_dashed_line(Raster& img, int x0, int y0, int x1, int y1, Color c,
                      int on, int off) {
  on = std::max(1, on);
  off = std::max(0, off);
  const int period = on + off;
  int dx = std::abs(x1 - x0);
  int dy = -std::abs(y1 - y0);
  const int sx = x0 < x1 ? 1 : -1;
  const int sy = y0 < y1 ? 1 : -1;
  int err = dx + dy;
  int step = 0;
  for (;;) {
    if (step % period < on) img.set_pixel(x0, y0, c);
    if (x0 == x1 && y0 == y1) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
    ++step;
  }
}

void draw_rect(Raster& img, int x, int y, int w, int h, Color c) {
  if (w <= 0 || h <= 0) return;
  draw_line(img, x, y, x + w - 1, y, c);
  draw_line(img, x, y + h - 1, x + w - 1, y + h - 1, c);
  draw_line(img, x, y, x, y + h - 1, c);
  draw_line(img, x + w - 1, y, x + w - 1, y + h - 1, c);
}

void fill_rect(Raster& img, int x, int y, int w, int h, Color c) {
  const int x0 = std::max(0, x);
  const int y0 = std::max(0, y);
  const int x1 = std::min(img.width(), x + w);
  const int y1 = std::min(img.height(), y + h);
  for (int yy = y0; yy < y1; ++yy) {
    for (int xx = x0; xx < x1; ++xx) img.at(xx, yy) = c;
  }
}

void draw_circle(Raster& img, int cx, int cy, int radius, Color c) {
  if (radius < 0) return;
  int x = radius;
  int y = 0;
  int err = 1 - radius;
  while (x >= y) {
    img.set_pixel(cx + x, cy + y, c);
    img.set_pixel(cx + y, cy + x, c);
    img.set_pixel(cx - y, cy + x, c);
    img.set_pixel(cx - x, cy + y, c);
    img.set_pixel(cx - x, cy - y, c);
    img.set_pixel(cx - y, cy - x, c);
    img.set_pixel(cx + y, cy - x, c);
    img.set_pixel(cx + x, cy - y, c);
    ++y;
    if (err < 0) {
      err += 2 * y + 1;
    } else {
      --x;
      err += 2 * (y - x) + 1;
    }
  }
}

void fill_circle(Raster& img, int cx, int cy, int radius, Color c) {
  if (radius < 0) return;
  for (int dy = -radius; dy <= radius; ++dy) {
    const int span =
        static_cast<int>(std::sqrt(static_cast<double>(radius * radius) -
                                   static_cast<double>(dy * dy)));
    for (int dx = -span; dx <= span; ++dx) {
      img.set_pixel(cx + dx, cy + dy, c);
    }
  }
}

void draw_marker(Raster& img, int cx, int cy, MarkerShape shape, Color c,
                 int r) {
  r = std::max(1, r);
  switch (shape) {
    case MarkerShape::kCross:
      draw_line(img, cx - r, cy, cx + r, cy, c);
      draw_line(img, cx, cy - r, cx, cy + r, c);
      break;
    case MarkerShape::kX:
      draw_line(img, cx - r, cy - r, cx + r, cy + r, c);
      draw_line(img, cx - r, cy + r, cx + r, cy - r, c);
      break;
    case MarkerShape::kSquare:
      draw_rect(img, cx - r, cy - r, 2 * r + 1, 2 * r + 1, c);
      break;
    case MarkerShape::kFilledSquare:
      fill_rect(img, cx - r, cy - r, 2 * r + 1, 2 * r + 1, c);
      break;
    case MarkerShape::kDiamond:
      draw_line(img, cx - r, cy, cx, cy - r, c);
      draw_line(img, cx, cy - r, cx + r, cy, c);
      draw_line(img, cx + r, cy, cx, cy + r, c);
      draw_line(img, cx, cy + r, cx - r, cy, c);
      break;
    case MarkerShape::kCircle:
      draw_circle(img, cx, cy, r, c);
      break;
    case MarkerShape::kDot:
      fill_circle(img, cx, cy, r, c);
      break;
    case MarkerShape::kTriangle:
      draw_line(img, cx, cy - r, cx + r, cy + r, c);
      draw_line(img, cx + r, cy + r, cx - r, cy + r, c);
      draw_line(img, cx - r, cy + r, cx, cy - r, c);
      break;
  }
}

void blit_mask(Raster& img, int x, int y, const std::uint8_t* mask,
               int mask_stride, int w, int h, Color c) {
  const int x0 = std::max(x, 0);
  const int y0 = std::max(y, 0);
  const int x1 = std::min(x + w, img.width());
  const int y1 = std::min(y + h, img.height());
  if (x0 >= x1 || y0 >= y1) return;
  const std::ptrdiff_t stride = img.width();
  Color* dst0 = img.data().data() + y0 * stride + x0;
  if (x0 == x && y0 == y && x1 == x + w && y1 == y + h) {
    constexpr int gw = kGlyphWidth;
    constexpr int gh = kGlyphHeight;
    switch (size_key(w, h)) {
      case size_key(3, 3):
        return blit_mask_fixed<3, 3>(dst0, stride, mask, mask_stride, c);
      case size_key(5, 5):
        return blit_mask_fixed<5, 5>(dst0, stride, mask, mask_stride, c);
      case size_key(7, 7):
        return blit_mask_fixed<7, 7>(dst0, stride, mask, mask_stride, c);
      case size_key(9, 9):
        return blit_mask_fixed<9, 9>(dst0, stride, mask, mask_stride, c);
      case size_key(gw, gh):
        return blit_mask_fixed<gw, gh>(dst0, stride, mask, mask_stride, c);
      case size_key(2 * gw, 2 * gh):
        return blit_mask_fixed<2 * gw, 2 * gh>(dst0, stride, mask,
                                               mask_stride, c);
      case size_key(3 * gw, 3 * gh):
        return blit_mask_fixed<3 * gw, 3 * gh>(dst0, stride, mask,
                                               mask_stride, c);
      case size_key(4 * gw, 4 * gh):
        return blit_mask_fixed<4 * gw, 4 * gh>(dst0, stride, mask,
                                               mask_stride, c);
      default:
        break;
    }
  }
  const std::uint8_t* mask0 =
      mask + (y0 - y) * static_cast<std::ptrdiff_t>(mask_stride) + (x0 - x);
  for (int row = 0; row < y1 - y0; ++row) {
    Color* dst = dst0 + row * stride;
    const std::uint8_t* m =
        mask0 + row * static_cast<std::ptrdiff_t>(mask_stride);
    for (int i = 0; i < x1 - x0; ++i) {
      if (m[i] != 0) dst[i] = c;
    }
  }
}

}  // namespace loctk::image

#include "floorplan/fleet_compositor.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "base/metrics.hpp"
#include "image/font.hpp"

namespace loctk::floorplan {

namespace {

using image::Color;
using image::Raster;

/// Solid rect via row spans: the pixels of the legacy `fill_rect`
/// without its per-pixel checked `at()`. The first row is filled
/// pixel-wise and the rest are memcpy'd from it (a 3-byte Color
/// defeats std::fill vectorization; memcpy doesn't care).
void fill_rect_spans(Raster& out, const FrameOp& op) {
  const int x0 = std::max(op.x, 0);
  const int y0 = std::max(op.y, 0);
  const int x1 = std::min(op.x + op.w, out.width());
  const int y1 = std::min(op.y + op.h, out.height());
  if (x0 >= x1 || y0 >= y1) return;
  const std::size_t stride = static_cast<std::size_t>(out.width());
  Color* first = out.data().data() + static_cast<std::size_t>(y0) * stride +
                 static_cast<std::size_t>(x0);
  std::fill(first, first + (x1 - x0), op.color);
  const std::size_t bytes = static_cast<std::size_t>(x1 - x0) * sizeof(Color);
  for (int y = y0 + 1; y < y1; ++y) {
    std::memcpy(first + static_cast<std::size_t>(y - y0) * stride, first,
                bytes);
  }
}

/// The footprint `draw_marker` inks for (shape, r >= 1): one byte per
/// pixel of the (2r+1)^2 neighborhood, row-major, nonzero = inked.
/// Rendered black-on-white by the legacy primitive and read back, so
/// it is byte-faithful to draw_marker by definition.
std::vector<std::uint8_t> marker_stamp(image::MarkerShape shape, int r) {
  const int side = 2 * r + 1;
  Raster tmp(side, side, image::colors::kWhite);
  image::draw_marker(tmp, r, r, shape, image::colors::kBlack, r);
  std::vector<std::uint8_t> mask;
  mask.reserve(tmp.data().size());
  for (const Color& px : tmp.data()) {
    mask.push_back(px == image::colors::kBlack ? 1 : 0);
  }
  return mask;
}

}  // namespace

// --- FleetFrameSpec builders ---------------------------------------

void FleetFrameSpec::add_fill_rect(int x, int y, int w, int h,
                                   image::Color c) {
  FrameOp op;
  op.kind = FrameOp::Kind::kFillRect;
  op.x = x;
  op.y = y;
  op.w = w;
  op.h = h;
  op.color = c;
  ops.push_back(std::move(op));
}

void FleetFrameSpec::add_rect(int x, int y, int w, int h, image::Color c) {
  FrameOp op;
  op.kind = FrameOp::Kind::kRect;
  op.x = x;
  op.y = y;
  op.w = w;
  op.h = h;
  op.color = c;
  ops.push_back(std::move(op));
}

void FleetFrameSpec::add_line(int x0, int y0, int x1, int y1,
                              image::Color c, bool dashed, int on,
                              int off) {
  FrameOp op;
  op.kind = FrameOp::Kind::kLine;
  op.x = x0;
  op.y = y0;
  op.x2 = x1;
  op.y2 = y1;
  op.color = c;
  op.dashed = dashed;
  op.dash_on = on;
  op.dash_off = off;
  ops.push_back(std::move(op));
}

void FleetFrameSpec::add_marker(int cx, int cy, image::MarkerShape shape,
                                image::Color c, int radius) {
  FrameOp op;
  op.kind = FrameOp::Kind::kMarker;
  op.x = cx;
  op.y = cy;
  op.shape = shape;
  op.color = c;
  op.radius = radius;
  ops.push_back(std::move(op));
}

void FleetFrameSpec::add_text(int x, int y, std::string text,
                              image::Color c, int scale) {
  FrameOp op;
  op.kind = FrameOp::Kind::kText;
  op.x = x;
  op.y = y;
  op.text = std::move(text);
  op.color = c;
  op.scale = scale;
  ops.push_back(std::move(op));
}

// --- FleetCompositor -----------------------------------------------

image::Raster FleetCompositor::render(const FleetFrameSpec& spec) const {
  static metrics::Counter& frames = metrics::counter("compose.frames");
  static metrics::Counter& ops_submitted = metrics::counter("compose.ops");
  static metrics::Counter& pixels = metrics::counter("compose.pixels");
  static metrics::HistogramMetric& render_s =
      metrics::histogram("compose.render.seconds");

  if (spec.width <= 0 || spec.height <= 0) return Raster{};
  const metrics::ScopedTimer timer(render_s);

  Raster out(spec.width, spec.height, spec.background);
  // Fleets draw thousands of identical dots: each distinct
  // (shape, radius) is stamped once, and a run of same-stamp markers
  // reuses the last one without a map lookup.
  using StampKey = std::pair<image::MarkerShape, int>;
  std::map<StampKey, std::vector<std::uint8_t>> stamps;
  const std::uint8_t* stamp = nullptr;
  StampKey stamp_key{};
  for (const FrameOp& op : spec.ops) {
    switch (op.kind) {
      case FrameOp::Kind::kFillRect:
        fill_rect_spans(out, op);
        break;
      case FrameOp::Kind::kRect:
        image::draw_rect(out, op.x, op.y, op.w, op.h, op.color);
        break;
      case FrameOp::Kind::kLine:
        if (op.dashed) {
          image::draw_dashed_line(out, op.x, op.y, op.x2, op.y2, op.color,
                                  op.dash_on, op.dash_off);
        } else {
          image::draw_line(out, op.x, op.y, op.x2, op.y2, op.color);
        }
        break;
      case FrameOp::Kind::kMarker: {
        const StampKey key{op.shape, std::max(1, op.radius)};
        if (stamp == nullptr || key != stamp_key) {
          auto [it, inserted] = stamps.try_emplace(key);
          if (inserted) it->second = marker_stamp(key.first, key.second);
          stamp = it->second.data();
          stamp_key = key;
        }
        const int r = stamp_key.second;
        const int side = 2 * r + 1;
        image::blit_mask(out, op.x - r, op.y - r, stamp, side, side, side,
                         op.color);
        break;
      }
      case FrameOp::Kind::kText:
        image::draw_text(out, op.x, op.y, op.text, op.color, op.scale);
        break;
    }
  }

  frames.add(1);
  ops_submitted.add(spec.ops.size());
  pixels.add(static_cast<std::uint64_t>(spec.width) *
             static_cast<std::uint64_t>(spec.height));
  return out;
}

image::Raster FleetCompositor::render_serial(
    const FleetFrameSpec& spec) const {
  if (spec.width <= 0 || spec.height <= 0) return Raster{};
  Raster out(spec.width, spec.height, spec.background);
  for (const FrameOp& op : spec.ops) {
    switch (op.kind) {
      case FrameOp::Kind::kFillRect:
        image::fill_rect(out, op.x, op.y, op.w, op.h, op.color);
        break;
      case FrameOp::Kind::kRect:
        image::draw_rect(out, op.x, op.y, op.w, op.h, op.color);
        break;
      case FrameOp::Kind::kLine:
        if (op.dashed) {
          image::draw_dashed_line(out, op.x, op.y, op.x2, op.y2, op.color,
                                  op.dash_on, op.dash_off);
        } else {
          image::draw_line(out, op.x, op.y, op.x2, op.y2, op.color);
        }
        break;
      case FrameOp::Kind::kMarker:
        image::draw_marker(out, op.x, op.y, op.shape, op.color, op.radius);
        break;
      case FrameOp::Kind::kText:
        image::draw_text(out, op.x, op.y, op.text, op.color,
                         std::max(1, op.scale));
        break;
    }
  }
  return out;
}

}  // namespace loctk::floorplan

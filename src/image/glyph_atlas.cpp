#include "image/glyph_atlas.hpp"

#include <algorithm>
#include <stdexcept>

#include "image/draw.hpp"

namespace loctk::image {

namespace {

/// Extra space claimed around every packed rect so neighbors never
/// touch (the lp_font GLYPH_BORDER idiom). The border lives inside the
/// claimed node, to the right of and below the rect.
constexpr int kGlyphBorder = 1;

/// Growing past this means a caller asked for something absurd; the
/// full 96-glyph x 4-scale set packs into a fraction of it.
constexpr int kMaxPageDim = 8192;

/// The character rasterized for the replacement-box slot. Any
/// non-printable code selects the box in `glyph_pixel`.
constexpr char kReplacementChar = '\x01';

}  // namespace

// --- RectPacker ----------------------------------------------------

RectPacker::RectPacker(int width, int height)
    : width_(std::max(0, width)), height_(std::max(0, height)),
      root_(std::make_unique<Node>(Node{0, 0, width_, height_, false,
                                        nullptr, nullptr})) {}

RectPacker::Node* RectPacker::insert_node(Node* node, int w, int h) {
  if (node == nullptr) return nullptr;
  if (node->used) {
    // Interior node: free space lives only in the children.
    Node* placed = insert_node(node->right.get(), w, h);
    return placed != nullptr ? placed : insert_node(node->down.get(), w, h);
  }
  if (w > node->w || h > node->h) return nullptr;
  // Claim this leaf's top-left corner and split the remainder: the
  // strip to the right of the rect (same height as the rect) and the
  // full-width strip below it.
  node->used = true;
  node->right = std::make_unique<Node>(
      Node{node->x + w, node->y, node->w - w, h, false, nullptr, nullptr});
  node->down = std::make_unique<Node>(
      Node{node->x, node->y + h, node->w, node->h - h, false, nullptr,
           nullptr});
  return node;
}

std::optional<PackedRect> RectPacker::insert(int w, int h) {
  if (w <= 0 || h <= 0) return std::nullopt;
  Node* node = insert_node(root_.get(), w + kGlyphBorder, h + kGlyphBorder);
  if (node == nullptr) return std::nullopt;
  return PackedRect{node->x, node->y, w, h};
}

// --- GlyphAtlas ----------------------------------------------------

std::size_t GlyphAtlas::slot_of(char ch, int scale) {
  const auto code = static_cast<unsigned char>(ch);
  const std::size_t glyph =
      (code >= 32 && code <= 126) ? static_cast<std::size_t>(code - 32) : 95;
  return static_cast<std::size_t>(scale - 1) * 96 + glyph;
}

GlyphAtlas::GlyphAtlas(const std::vector<GlyphKey>& keys) {
  // Deduplicate into slots; remember one representative character per
  // slot for rasterization.
  std::array<char, 96 * kAtlasMaxScale> slot_char{};
  std::vector<std::size_t> slots;
  for (const GlyphKey& key : keys) {
    const int scale = std::max(1, key.scale);
    if (scale > kAtlasMaxScale) {
      throw std::invalid_argument("GlyphAtlas: scale exceeds kAtlasMaxScale");
    }
    const std::size_t slot = slot_of(key.ch, scale);
    if (!present_[slot]) {
      present_[slot] = true;
      slot_char[slot] = has_glyph(key.ch) ? key.ch : kReplacementChar;
      slots.push_back(slot);
    }
  }
  glyph_count_ = slots.size();

  // Pack tallest-first (then widest, then slot id) — the standard
  // heuristic for the node-tree packer, and a deterministic order.
  auto dims = [](std::size_t slot) {
    const int scale = static_cast<int>(slot / 96) + 1;
    return std::pair<int, int>{kGlyphWidth * scale, kGlyphHeight * scale};
  };
  std::sort(slots.begin(), slots.end(), [&](std::size_t a, std::size_t b) {
    const auto [aw, ah] = dims(a);
    const auto [bw, bh] = dims(b);
    if (ah != bh) return ah > bh;
    if (aw != bw) return aw > bw;
    return a < b;
  });

  // Grow the page (doubling the smaller dimension) until every
  // requested glyph packs. Nothing is ever dropped: either all fit or
  // construction fails loudly.
  int width = 64;
  int height = 64;
  std::vector<PackedRect> placed(slots.size());
  for (;;) {
    RectPacker packer(width, height);
    bool all_placed = true;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const auto [w, h] = dims(slots[i]);
      const std::optional<PackedRect> rect = packer.insert(w, h);
      if (!rect) {
        all_placed = false;
        break;
      }
      placed[i] = *rect;
    }
    if (all_placed) break;
    if (width <= height) {
      width *= 2;
    } else {
      height *= 2;
    }
    if (width > kMaxPageDim || height > kMaxPageDim) {
      throw std::runtime_error("GlyphAtlas: glyph set cannot be packed");
    }
  }
  width_ = width;
  height_ = height;

  // Rasterize each glyph into its rect from the same glyph_pixel
  // table the legacy draw_char consults — the source of the atlas
  // path's pixel-for-pixel equivalence.
  page_.assign(static_cast<std::size_t>(width_) *
                   static_cast<std::size_t>(height_),
               0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::size_t slot = slots[i];
    const int scale = static_cast<int>(slot / 96) + 1;
    const PackedRect& rect = placed[i];
    entries_[slot] = AtlasGlyph{static_cast<std::uint16_t>(rect.x),
                                static_cast<std::uint16_t>(rect.y),
                                static_cast<std::uint8_t>(rect.w),
                                static_cast<std::uint8_t>(rect.h)};
    const char ch = slot_char[slot];
    for (int row = 0; row < kGlyphHeight; ++row) {
      for (int col = 0; col < kGlyphWidth; ++col) {
        if (!glyph_pixel(ch, col, row)) continue;
        for (int dy = 0; dy < scale; ++dy) {
          const std::size_t base =
              static_cast<std::size_t>(rect.y + row * scale + dy) *
                  static_cast<std::size_t>(width_) +
              static_cast<std::size_t>(rect.x + col * scale);
          for (int dx = 0; dx < scale; ++dx) {
            page_[base + static_cast<std::size_t>(dx)] = 1;
          }
        }
      }
    }
  }
}

const GlyphAtlas& GlyphAtlas::shared() {
  static const GlyphAtlas atlas = [] {
    std::vector<GlyphKey> keys;
    keys.reserve(96 * kAtlasMaxScale);
    for (int scale = 1; scale <= kAtlasMaxScale; ++scale) {
      for (int code = 32; code <= 126; ++code) {
        keys.push_back({static_cast<char>(code), scale});
      }
      keys.push_back({kReplacementChar, scale});
    }
    return GlyphAtlas(keys);
  }();
  return atlas;
}

const AtlasGlyph* GlyphAtlas::find(char ch, int scale) const {
  if (scale < 1 || scale > kAtlasMaxScale) return nullptr;
  const std::size_t slot = slot_of(ch, scale);
  return present_[slot] ? &entries_[slot] : nullptr;
}

void GlyphAtlas::blit_glyph(Raster& img, int x, int y, char ch, Color c,
                            int scale) const {
  scale = std::max(1, scale);
  const AtlasGlyph* glyph = find(ch, scale);
  if (glyph == nullptr) {
    // Not packed here (oversize scale or a subset atlas): the legacy
    // per-pixel path keeps the output correct, just slower.
    draw_char(img, x, y, ch, c, scale);
    return;
  }
  blit_mask(img, x, y, row(glyph->y) + glyph->x, width_, glyph->w, glyph->h,
            c);
}

int draw_text_atlas(Raster& img, int x, int y, std::string_view text,
                    Color c, int scale) {
  scale = std::max(1, scale);
  const GlyphAtlas& atlas = GlyphAtlas::shared();
  int cx = x;
  int cy = y;
  int max_width = 0;
  for (const char ch : text) {
    if (ch == '\n') {
      max_width = std::max(max_width, cx - x);
      cx = x;
      cy += kLineAdvance * scale;
      continue;
    }
    atlas.blit_glyph(img, cx, cy, ch, c, scale);
    cx += kGlyphAdvance * scale;
  }
  return std::max(max_width, cx - x);
}

}  // namespace loctk::image

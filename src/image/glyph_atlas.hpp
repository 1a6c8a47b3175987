#pragma once

/// \file glyph_atlas.hpp
/// A prebuilt packed glyph atlas for blit-based text rendering.
///
/// The legacy `draw_text` path re-evaluates `glyph_pixel(ch, col,
/// row)` for every font cell of every character on every call, then
/// expands each set cell into a scale x scale block of bounds-checked
/// `set_pixel` writes. That is fine for a one-off figure label and
/// unusable for a fleet frame carrying a thousand AP labels per tick.
///
/// `GlyphAtlas` renders every glyph once, up front, into a single
/// monochrome page: all 95 printable ASCII glyphs (plus the
/// replacement box) at integer scales 1..kAtlasMaxScale, placed by a
/// node-tree rect packer (the classic lightmap-packer recursion: each
/// leaf either holds a rect or splits into a right and a bottom
/// remainder). Drawing a string is then a per-character `blit_mask`
/// over prerendered bytes, no per-pixel font lookup and no per-pixel
/// scale arithmetic.
///
/// `draw_text_atlas` is pixel-identical to `draw_text` by
/// construction: the page is rasterized from the same `glyph_pixel`
/// table the legacy path consults, the layout loop (advance, newline,
/// return value) is the same code shape, and the golden-image suite
/// pins equality for every printable character at every scale,
/// including clipping at all four raster edges.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "image/font.hpp"
#include "image/raster.hpp"

namespace loctk::image {

/// Highest text scale prerendered into the shared atlas. Larger
/// scales fall back to the legacy per-pixel path (still correct, just
/// not blit-accelerated).
inline constexpr int kAtlasMaxScale = 4;

/// A rectangle placed by the packer (pixel units, top-left origin).
struct PackedRect {
  int x = 0;
  int y = 0;
  int w = 0;
  int h = 0;

  friend bool operator==(const PackedRect&, const PackedRect&) = default;
};

/// Node-tree rectangle packer (lp_font-style). Each leaf is free
/// space; inserting into a leaf claims its top-left corner and splits
/// the remainder into a right child and a bottom child. Deterministic:
/// the layout is a pure function of the insertion sequence.
class RectPacker {
 public:
  RectPacker(int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }

  /// Places a w x h rect (plus a 1px border on each side kept inside
  /// the claimed node, so neighboring rects never touch). Returns
  /// nullopt when no leaf can hold it — the caller decides whether to
  /// grow the page; nothing is ever silently dropped.
  std::optional<PackedRect> insert(int w, int h);

 private:
  struct Node {
    int x, y, w, h;
    bool used = false;
    std::unique_ptr<Node> right;  // remainder to the right of the rect
    std::unique_ptr<Node> down;   // remainder below the rect
  };

  Node* insert_node(Node* node, int w, int h);

  int width_;
  int height_;
  std::unique_ptr<Node> root_;
};

/// One glyph's placement inside the atlas page.
struct AtlasGlyph {
  std::uint16_t x = 0;
  std::uint16_t y = 0;
  std::uint8_t w = 0;  ///< kGlyphWidth * scale
  std::uint8_t h = 0;  ///< kGlyphHeight * scale
};

/// A packed page of prerendered glyph masks plus the per-glyph UV
/// table. Immutable after construction, so one instance is safely
/// shared across threads.
class GlyphAtlas {
 public:
  /// One requested (character, scale) pair. Characters outside the
  /// printable range select the replacement box.
  struct GlyphKey {
    char ch = ' ';
    int scale = 1;
  };

  /// Packs exactly the requested glyphs (deduplicated). Grows the page
  /// until every request is placed — a constructed atlas never lacks a
  /// requested glyph.
  explicit GlyphAtlas(const std::vector<GlyphKey>& keys);

  /// The process-wide atlas: every printable char plus the replacement
  /// box at scales 1..kAtlasMaxScale. Built once, on first use.
  static const GlyphAtlas& shared();

  int page_width() const { return width_; }
  int page_height() const { return height_; }
  std::size_t glyph_count() const { return glyph_count_; }

  /// Placement of `ch` at `scale`; nullptr when that (char, scale) was
  /// not packed into this atlas (never happens for requested keys).
  /// Characters without a real glyph resolve to the replacement box.
  const AtlasGlyph* find(char ch, int scale) const;

  /// One row of the monochrome page (0 = clear, 1 = inked).
  const std::uint8_t* row(int y) const {
    return page_.data() + static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(width_);
  }

  /// Blits one glyph with top-left corner (x, y), clipped to the
  /// raster. Pixel-identical to `draw_char` at the same position.
  void blit_glyph(Raster& img, int x, int y, char ch, Color c,
                  int scale) const;

 private:
  static std::size_t slot_of(char ch, int scale);

  int width_ = 0;
  int height_ = 0;
  std::size_t glyph_count_ = 0;
  std::vector<std::uint8_t> page_;
  // Slot = (scale-1) * 96 + glyph index, glyph index 95 = replacement.
  std::array<AtlasGlyph, 96 * kAtlasMaxScale> entries_{};
  std::array<bool, 96 * kAtlasMaxScale> present_{};
};

/// Drop-in replacement for `draw_text`: same layout, same return value
/// (width in pixels of the longest line drawn), same clipping, but
/// each character is an atlas blit instead of a per-pixel font walk.
/// Scales above kAtlasMaxScale use the legacy path per character.
int draw_text_atlas(Raster& img, int x, int y, std::string_view text,
                    Color c, int scale = 1);

}  // namespace loctk::image

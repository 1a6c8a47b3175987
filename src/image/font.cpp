#include "image/font.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "image/draw.hpp"

namespace loctk::image {

namespace {

// Each glyph is 7 rows of 5 cells; '#' = set, anything else = clear.
// Rows are concatenated into one 35-char string per glyph, ordered
// top to bottom. Index = ch - 32.
struct GlyphArt {
  const char* rows;  // exactly 35 characters
};

constexpr std::array<GlyphArt, 95> kGlyphs = {{
    // 32 ' '
    {"     "
     "     "
     "     "
     "     "
     "     "
     "     "
     "     "},
    // 33 '!'
    {"  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     "     "
     "  #  "},
    // 34 '"'
    {" # # "
     " # # "
     " # # "
     "     "
     "     "
     "     "
     "     "},
    // 35 '#'
    {" # # "
     " # # "
     "#####"
     " # # "
     "#####"
     " # # "
     " # # "},
    // 36 '$'
    {"  #  "
     " ####"
     "# #  "
     " ### "
     "  # #"
     "#### "
     "  #  "},
    // 37 '%'
    {"##   "
     "##  #"
     "   # "
     "  #  "
     " #   "
     "#  ##"
     "   ##"},
    // 38 '&'
    {" ##  "
     "#  # "
     "# #  "
     " #   "
     "# # #"
     "#  # "
     " ## #"},
    // 39 '\''
    {"  #  "
     "  #  "
     "  #  "
     "     "
     "     "
     "     "
     "     "},
    // 40 '('
    {"   # "
     "  #  "
     " #   "
     " #   "
     " #   "
     "  #  "
     "   # "},
    // 41 ')'
    {" #   "
     "  #  "
     "   # "
     "   # "
     "   # "
     "  #  "
     " #   "},
    // 42 '*'
    {"     "
     "# # #"
     " ### "
     "#####"
     " ### "
     "# # #"
     "     "},
    // 43 '+'
    {"     "
     "  #  "
     "  #  "
     "#####"
     "  #  "
     "  #  "
     "     "},
    // 44 ','
    {"     "
     "     "
     "     "
     "     "
     "  ## "
     "  ## "
     " #   "},
    // 45 '-'
    {"     "
     "     "
     "     "
     "#####"
     "     "
     "     "
     "     "},
    // 46 '.'
    {"     "
     "     "
     "     "
     "     "
     "     "
     " ##  "
     " ##  "},
    // 47 '/'
    {"    #"
     "    #"
     "   # "
     "  #  "
     " #   "
     "#    "
     "#    "},
    // 48 '0'
    {" ### "
     "#   #"
     "#  ##"
     "# # #"
     "##  #"
     "#   #"
     " ### "},
    // 49 '1'
    {"  #  "
     " ##  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     " ### "},
    // 50 '2'
    {" ### "
     "#   #"
     "    #"
     "   # "
     "  #  "
     " #   "
     "#####"},
    // 51 '3'
    {"#####"
     "   # "
     "  #  "
     "   # "
     "    #"
     "#   #"
     " ### "},
    // 52 '4'
    {"   # "
     "  ## "
     " # # "
     "#  # "
     "#####"
     "   # "
     "   # "},
    // 53 '5'
    {"#####"
     "#    "
     "#### "
     "    #"
     "    #"
     "#   #"
     " ### "},
    // 54 '6'
    {"  ## "
     " #   "
     "#    "
     "#### "
     "#   #"
     "#   #"
     " ### "},
    // 55 '7'
    {"#####"
     "    #"
     "   # "
     "  #  "
     " #   "
     " #   "
     " #   "},
    // 56 '8'
    {" ### "
     "#   #"
     "#   #"
     " ### "
     "#   #"
     "#   #"
     " ### "},
    // 57 '9'
    {" ### "
     "#   #"
     "#   #"
     " ####"
     "    #"
     "   # "
     " ##  "},
    // 58 ':'
    {"     "
     " ##  "
     " ##  "
     "     "
     " ##  "
     " ##  "
     "     "},
    // 59 ';'
    {"     "
     " ##  "
     " ##  "
     "     "
     " ##  "
     " ##  "
     "#    "},
    // 60 '<'
    {"   # "
     "  #  "
     " #   "
     "#    "
     " #   "
     "  #  "
     "   # "},
    // 61 '='
    {"     "
     "     "
     "#####"
     "     "
     "#####"
     "     "
     "     "},
    // 62 '>'
    {" #   "
     "  #  "
     "   # "
     "    #"
     "   # "
     "  #  "
     " #   "},
    // 63 '?'
    {" ### "
     "#   #"
     "    #"
     "   # "
     "  #  "
     "     "
     "  #  "},
    // 64 '@'
    {" ### "
     "#   #"
     "    #"
     " ## #"
     "# # #"
     "# # #"
     " ### "},
    // 65 'A'
    {" ### "
     "#   #"
     "#   #"
     "#   #"
     "#####"
     "#   #"
     "#   #"},
    // 66 'B'
    {"#### "
     "#   #"
     "#   #"
     "#### "
     "#   #"
     "#   #"
     "#### "},
    // 67 'C'
    {" ### "
     "#   #"
     "#    "
     "#    "
     "#    "
     "#   #"
     " ### "},
    // 68 'D'
    {"###  "
     "#  # "
     "#   #"
     "#   #"
     "#   #"
     "#  # "
     "###  "},
    // 69 'E'
    {"#####"
     "#    "
     "#    "
     "#### "
     "#    "
     "#    "
     "#####"},
    // 70 'F'
    {"#####"
     "#    "
     "#    "
     "#### "
     "#    "
     "#    "
     "#    "},
    // 71 'G'
    {" ### "
     "#   #"
     "#    "
     "# ###"
     "#   #"
     "#   #"
     " ####"},
    // 72 'H'
    {"#   #"
     "#   #"
     "#   #"
     "#####"
     "#   #"
     "#   #"
     "#   #"},
    // 73 'I'
    {" ### "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     " ### "},
    // 74 'J'
    {"  ###"
     "   # "
     "   # "
     "   # "
     "   # "
     "#  # "
     " ##  "},
    // 75 'K'
    {"#   #"
     "#  # "
     "# #  "
     "##   "
     "# #  "
     "#  # "
     "#   #"},
    // 76 'L'
    {"#    "
     "#    "
     "#    "
     "#    "
     "#    "
     "#    "
     "#####"},
    // 77 'M'
    {"#   #"
     "## ##"
     "# # #"
     "# # #"
     "#   #"
     "#   #"
     "#   #"},
    // 78 'N'
    {"#   #"
     "#   #"
     "##  #"
     "# # #"
     "#  ##"
     "#   #"
     "#   #"},
    // 79 'O'
    {" ### "
     "#   #"
     "#   #"
     "#   #"
     "#   #"
     "#   #"
     " ### "},
    // 80 'P'
    {"#### "
     "#   #"
     "#   #"
     "#### "
     "#    "
     "#    "
     "#    "},
    // 81 'Q'
    {" ### "
     "#   #"
     "#   #"
     "#   #"
     "# # #"
     "#  # "
     " ## #"},
    // 82 'R'
    {"#### "
     "#   #"
     "#   #"
     "#### "
     "# #  "
     "#  # "
     "#   #"},
    // 83 'S'
    {" ####"
     "#    "
     "#    "
     " ### "
     "    #"
     "    #"
     "#### "},
    // 84 'T'
    {"#####"
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "},
    // 85 'U'
    {"#   #"
     "#   #"
     "#   #"
     "#   #"
     "#   #"
     "#   #"
     " ### "},
    // 86 'V'
    {"#   #"
     "#   #"
     "#   #"
     "#   #"
     "#   #"
     " # # "
     "  #  "},
    // 87 'W'
    {"#   #"
     "#   #"
     "#   #"
     "# # #"
     "# # #"
     "## ##"
     "#   #"},
    // 88 'X'
    {"#   #"
     "#   #"
     " # # "
     "  #  "
     " # # "
     "#   #"
     "#   #"},
    // 89 'Y'
    {"#   #"
     "#   #"
     " # # "
     "  #  "
     "  #  "
     "  #  "
     "  #  "},
    // 90 'Z'
    {"#####"
     "    #"
     "   # "
     "  #  "
     " #   "
     "#    "
     "#####"},
    // 91 '['
    {" ### "
     " #   "
     " #   "
     " #   "
     " #   "
     " #   "
     " ### "},
    // 92 '\\'
    {"#    "
     "#    "
     " #   "
     "  #  "
     "   # "
     "    #"
     "    #"},
    // 93 ']'
    {" ### "
     "   # "
     "   # "
     "   # "
     "   # "
     "   # "
     " ### "},
    // 94 '^'
    {"  #  "
     " # # "
     "#   #"
     "     "
     "     "
     "     "
     "     "},
    // 95 '_'
    {"     "
     "     "
     "     "
     "     "
     "     "
     "     "
     "#####"},
    // 96 '`'
    {" #   "
     "  #  "
     "     "
     "     "
     "     "
     "     "
     "     "},
    // 97 'a'
    {"     "
     "     "
     " ### "
     "    #"
     " ####"
     "#   #"
     " ####"},
    // 98 'b'
    {"#    "
     "#    "
     "#### "
     "#   #"
     "#   #"
     "#   #"
     "#### "},
    // 99 'c'
    {"     "
     "     "
     " ####"
     "#    "
     "#    "
     "#    "
     " ####"},
    // 100 'd'
    {"    #"
     "    #"
     " ####"
     "#   #"
     "#   #"
     "#   #"
     " ####"},
    // 101 'e'
    {"     "
     "     "
     " ### "
     "#   #"
     "#####"
     "#    "
     " ### "},
    // 102 'f'
    {"  ## "
     " #   "
     "###  "
     " #   "
     " #   "
     " #   "
     " #   "},
    // 103 'g'
    {"     "
     " ####"
     "#   #"
     "#   #"
     " ####"
     "    #"
     " ### "},
    // 104 'h'
    {"#    "
     "#    "
     "#### "
     "#   #"
     "#   #"
     "#   #"
     "#   #"},
    // 105 'i'
    {"  #  "
     "     "
     " ##  "
     "  #  "
     "  #  "
     "  #  "
     " ### "},
    // 106 'j'
    {"   # "
     "     "
     "  ## "
     "   # "
     "   # "
     "#  # "
     " ##  "},
    // 107 'k'
    {"#    "
     "#    "
     "#  # "
     "# #  "
     "##   "
     "# #  "
     "#  # "},
    // 108 'l'
    {" ##  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     " ### "},
    // 109 'm'
    {"     "
     "     "
     "## # "
     "# # #"
     "# # #"
     "# # #"
     "# # #"},
    // 110 'n'
    {"     "
     "     "
     "#### "
     "#   #"
     "#   #"
     "#   #"
     "#   #"},
    // 111 'o'
    {"     "
     "     "
     " ### "
     "#   #"
     "#   #"
     "#   #"
     " ### "},
    // 112 'p'
    {"     "
     "#### "
     "#   #"
     "#   #"
     "#### "
     "#    "
     "#    "},
    // 113 'q'
    {"     "
     " ####"
     "#   #"
     "#   #"
     " ####"
     "    #"
     "    #"},
    // 114 'r'
    {"     "
     "     "
     "# ## "
     "##   "
     "#    "
     "#    "
     "#    "},
    // 115 's'
    {"     "
     "     "
     " ####"
     "#    "
     " ### "
     "    #"
     "#### "},
    // 116 't'
    {" #   "
     " #   "
     "###  "
     " #   "
     " #   "
     " #  #"
     "  ## "},
    // 117 'u'
    {"     "
     "     "
     "#   #"
     "#   #"
     "#   #"
     "#  ##"
     " ## #"},
    // 118 'v'
    {"     "
     "     "
     "#   #"
     "#   #"
     "#   #"
     " # # "
     "  #  "},
    // 119 'w'
    {"     "
     "     "
     "#   #"
     "#   #"
     "# # #"
     "# # #"
     " # # "},
    // 120 'x'
    {"     "
     "     "
     "#   #"
     " # # "
     "  #  "
     " # # "
     "#   #"},
    // 121 'y'
    {"     "
     "#   #"
     "#   #"
     " ####"
     "    #"
     "#   #"
     " ### "},
    // 122 'z'
    {"     "
     "     "
     "#####"
     "   # "
     "  #  "
     " #   "
     "#####"},
    // 123 '{'
    {"   ##"
     "  #  "
     "  #  "
     " #   "
     "  #  "
     "  #  "
     "   ##"},
    // 124 '|'
    {"  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "
     "  #  "},
    // 125 '}'
    {"##   "
     "  #  "
     "  #  "
     "   # "
     "  #  "
     "  #  "
     "##   "},
    // 126 '~'
    {"     "
     "     "
     " #  #"
     "# # #"
     "#  # "
     "     "
     "     "},
}};

// Replacement box for characters outside 32..126.
constexpr GlyphArt kReplacement = {
    "#####"
    "#   #"
    "#   #"
    "#   #"
    "#   #"
    "#   #"
    "#####"};

const GlyphArt& glyph_for(char ch) {
  const auto code = static_cast<unsigned char>(ch);
  if (code < 32 || code > 126) return kReplacement;
  return kGlyphs[code - 32];
}

/// Cells per scale: the 95 printable glyphs in code order, then the
/// replacement box.
constexpr std::size_t kCellCount = kGlyphs.size() + 1;

/// The glyph cells of `scale`, or nullptr past kMaxCellScale. Scale s
/// has kCellCount cells back to back, each a 5s x 7s byte mask (1 =
/// ink, rows 5s bytes apart). Every scale is built on the first call (a
/// thread-safe static) and read-only after.
const std::uint8_t* cells_at(int scale) {
  using GlyphCells = std::array<std::vector<std::uint8_t>, kMaxCellScale>;
  static const GlyphCells cells = [] {
    GlyphCells built;
    for (int s = 1; s <= kMaxCellScale; ++s) {
      const int w = kGlyphWidth * s;
      const int h = kGlyphHeight * s;
      std::vector<std::uint8_t>& mask = built[static_cast<std::size_t>(s - 1)];
      mask.resize(kCellCount * static_cast<std::size_t>(w * h));
      std::uint8_t* out = mask.data();
      for (std::size_t g = 0; g < kCellCount; ++g) {
        const GlyphArt& art = g < kGlyphs.size() ? kGlyphs[g] : kReplacement;
        for (int y = 0; y < h; ++y) {
          for (int x = 0; x < w; ++x) {
            *out++ = art.rows[(y / s) * kGlyphWidth + x / s] == '#';
          }
        }
      }
    }
    return built;
  }();
  return scale <= kMaxCellScale
             ? cells[static_cast<std::size_t>(scale - 1)].data()
             : nullptr;
}

/// Draws `ch` at `scale` >= 1: one blit of its cell from `cells`
/// (cells_at(scale)), or the per-pixel walk when there are none.
void put_char(Raster& img, int x, int y, char ch, Color c, int scale,
              const std::uint8_t* cells) {
  if (cells != nullptr) {
    const int w = kGlyphWidth * scale;
    const int h = kGlyphHeight * scale;
    const auto code = static_cast<unsigned char>(ch);
    const std::size_t cell = has_glyph(ch) ? code - 32u : kCellCount - 1;
    blit_mask(img, x, y, cells + cell * static_cast<std::size_t>(w * h), w,
              w, h, c);
    return;
  }
  for (int row = 0; row < kGlyphHeight; ++row) {
    for (int col = 0; col < kGlyphWidth; ++col) {
      if (!glyph_pixel(ch, col, row)) continue;
      for (int dy = 0; dy < scale; ++dy) {
        for (int dx = 0; dx < scale; ++dx) {
          img.set_pixel(x + col * scale + dx, y + row * scale + dy, c);
        }
      }
    }
  }
}

}  // namespace

bool has_glyph(char ch) {
  const auto code = static_cast<unsigned char>(ch);
  return code >= 32 && code <= 126;
}

bool glyph_pixel(char ch, int col, int row) {
  if (col < 0 || col >= kGlyphWidth || row < 0 || row >= kGlyphHeight) {
    return false;
  }
  return glyph_for(ch).rows[row * kGlyphWidth + col] == '#';
}

void draw_char(Raster& img, int x, int y, char ch, Color c, int scale) {
  scale = std::max(1, scale);
  put_char(img, x, y, ch, c, scale, cells_at(scale));
}

int draw_text(Raster& img, int x, int y, std::string_view text, Color c,
              int scale) {
  scale = std::max(1, scale);
  const std::uint8_t* cells = cells_at(scale);
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
    put_char(img, cx, cy, ch, c, scale, cells);
    cx += kGlyphAdvance * scale;
  }
  return std::max(max_width, cx - x);
}

int text_width(std::string_view text, int scale) {
  scale = std::max(1, scale);
  int longest = 0;
  int current = 0;
  for (const char ch : text) {
    if (ch == '\n') {
      longest = std::max(longest, current);
      current = 0;
    } else {
      current += kGlyphAdvance * scale;
    }
  }
  return std::max(longest, current);
}

int text_height(std::string_view text, int scale) {
  scale = std::max(1, scale);
  int lines = 1;
  for (const char ch : text) {
    if (ch == '\n') ++lines;
  }
  return (lines - 1) * kLineAdvance * scale + kGlyphHeight * scale;
}

}  // namespace loctk::image

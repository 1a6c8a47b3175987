#include "base/string_hash.hpp"

#include <cstring>

namespace loctk {

namespace {

std::uint64_t load_word(const char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof word);
  return word;
}

}  // namespace

std::uint64_t bssid_hash(std::string_view key) {
  constexpr std::uint64_t kMul = 0xBF58476D1CE4E5B9ULL;
  const char* p = key.data();
  const std::size_t n = key.size();
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ n;
  if (n >= 8) {
    for (std::size_t i = 0; i + 8 < n; i += 8) {
      h = (h ^ load_word(p + i)) * kMul;
    }
    h = (h ^ load_word(p + n - 8)) * kMul;
  } else {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < n; ++i) {
      word |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
    h = (h ^ word) * kMul;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace loctk

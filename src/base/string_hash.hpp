#pragma once

/// \file string_hash.hpp
/// The word-at-a-time string hash shared by the flat BSSID tables: the
/// compiled database's slot index and the wi-scan parser's interner.

#include <cstdint>
#include <string_view>

namespace loctk {

/// Hash of a BSSID-sized key: one multiply per 8-byte word — the last
/// word overlaps its predecessor, so a 17-character MAC takes three
/// fixed-size loads — then the MurmurHash3 finalizer, so every input
/// bit reaches both the low (cell) and the high (tag) half.
std::uint64_t bssid_hash(std::string_view key);

}  // namespace loctk

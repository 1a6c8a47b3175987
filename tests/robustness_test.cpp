// Failure-injection tests: corrupted bytes and hostile inputs must
// produce typed errors, never crashes or silent garbage. This is the
// property the paper's "easier to move and transmit over a network"
// claim quietly depends on.

#include <string>

#include <gtest/gtest.h>

#include "image/codec_bmp.hpp"
#include "image/codec_pnm.hpp"
#include "stats/rng.hpp"
#include "traindb/codec.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/format.hpp"

namespace loctk {
namespace {

// A realistic encoded database to corrupt.
std::string golden_db_bytes() {
  traindb::TrainingDatabase db;
  db.set_site_name("fuzz");
  for (int i = 0; i < 4; ++i) {
    traindb::TrainingPoint p;
    p.location = "p" + std::to_string(i);
    p.position = {i * 10.0, 5.0};
    traindb::ApStatistics s;
    s.bssid = "aa:bb:cc:dd:ee:0" + std::to_string(i);
    s.mean_dbm = -50.0 - i;
    s.stddev_db = 3.0;
    s.sample_count = 90;
    s.scan_count = 90;
    s.min_dbm = -60.0;
    s.max_dbm = -45.0;
    for (int k = 0; k < 50; ++k) {
      s.samples_centi_dbm.push_back(-5000 - (k % 9) * 50);
    }
    p.per_ap.push_back(std::move(s));
    db.add_point(std::move(p));
  }
  return traindb::encode_database(db);
}

TEST(Fuzz, TruncatedDatabaseAlwaysThrows) {
  const std::string good = golden_db_bytes();
  for (std::size_t len = 0; len < good.size(); len += 7) {
    EXPECT_THROW(traindb::decode_database(good.substr(0, len)),
                 traindb::CodecError)
        << "prefix length " << len;
  }
}

TEST(Fuzz, ByteFlippedDatabaseNeverCrashes) {
  const std::string good = golden_db_bytes();
  stats::Rng rng(20260705);
  int threw = 0, parsed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = good;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    try {
      const traindb::TrainingDatabase db =
          traindb::decode_database(mutated);
      // A lucky mutation may still parse (e.g. flipping a stats byte)
      // — but the result must be structurally sane.
      EXPECT_LE(db.size(), 64u);
      ++parsed;
    } catch (const traindb::CodecError&) {
      ++threw;
    } catch (const traindb::DatabaseError&) {
      ++threw;  // e.g. duplicate-name from a mutated string
    }
  }
  EXPECT_EQ(threw + parsed, 400);
  EXPECT_GT(threw, 50);  // corruption is usually detected
}

TEST(Fuzz, RandomBytesIntoEveryDecoder) {
  stats::Rng rng(42424242);
  for (int trial = 0; trial < 200; ++trial) {
    const auto len =
        static_cast<std::size_t>(rng.uniform_int(0, 300));
    std::string junk(len, '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng.uniform_int(0, 255));
    }
    // Each decoder either parses or throws its typed error.
    try {
      (void)traindb::decode_database(junk);
    } catch (const traindb::CodecError&) {
    } catch (const traindb::DatabaseError&) {
    }
    try {
      std::istringstream is(junk);
      (void)wiscan::Archive::read(is);
    } catch (const wiscan::ArchiveError&) {
    }
    try {
      (void)wiscan::decode_wiscan(junk, "fuzz");
    } catch (const wiscan::FormatError&) {
    }
    try {
      (void)image::decode_pnm(junk);
    } catch (const image::CodecError&) {
    }
    try {
      (void)image::decode_bmp(junk);
    } catch (const image::CodecError&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, ArchiveLengthFieldAttacks) {
  // Hand-craft archives with hostile length fields; the caps must
  // reject them before any large allocation.
  auto u64 = [](std::uint64_t v) {
    std::string s;
    for (int i = 0; i < 8; ++i) {
      s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    return s;
  };
  // Entry count ~2^60.
  {
    std::istringstream is("LAR1" + u64(1ull << 60));
    EXPECT_THROW(wiscan::Archive::read(is), wiscan::ArchiveError);
  }
  // Name length ~2^50.
  {
    std::istringstream is("LAR1" + u64(1) + u64(1ull << 50));
    EXPECT_THROW(wiscan::Archive::read(is), wiscan::ArchiveError);
  }
  // Data length 2^40 with no payload.
  {
    std::istringstream is("LAR1" + u64(1) + u64(1) + "x" +
                          u64(1ull << 40));
    EXPECT_THROW(wiscan::Archive::read(is), wiscan::ArchiveError);
  }
}

TEST(Fuzz, PnmDimensionAttacks) {
  // Giant dimensions must be rejected, not allocated.
  EXPECT_THROW(image::decode_pnm("P6\n99999999 99999999\n255\n"),
               image::CodecError);
  EXPECT_THROW(image::decode_pnm("P6\n1048577 1\n255\n"),
               image::CodecError);
}

TEST(Fuzz, WiscanToleratesGarbageValuesButNotStructure) {
  // Absurd-but-parseable values are accepted (policy: the generator
  // filters, the parser does not editorialize)...
  const auto f = wiscan::decode_wiscan("bssid=x rssi=99999\n");
  EXPECT_EQ(f.size(), 1u);
  // ...while structural breakage throws.
  EXPECT_THROW(wiscan::decode_wiscan("bssid=x rssi=99999 extra\n"),
               wiscan::FormatError);
}

}  // namespace
}  // namespace loctk

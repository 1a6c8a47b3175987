// Golden-format tests: freeze the on-disk representations so format
// changes are deliberate, versioned decisions rather than accidents.
// If one of these fails, either bump the codec version and add a
// migration path, or revert the encoding change.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "traindb/codec.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/format.hpp"
#include "wiscan/location_map.hpp"

namespace loctk {
namespace {

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

TEST(GoldenFormat, TrainingDatabaseV1Bytes) {
  traindb::TrainingDatabase db;
  db.set_site_name("g");
  traindb::TrainingPoint p;
  p.location = "k";
  p.position = {1.0, 2.0};
  traindb::ApStatistics s;
  s.bssid = "aa";
  s.mean_dbm = -60.0;
  s.stddev_db = 2.0;
  s.sample_count = 3;
  s.scan_count = 3;
  s.min_dbm = -62.0;
  s.max_dbm = -58.0;
  s.samples_centi_dbm = {-6000, -6000, -6200};
  p.per_ap.push_back(s);
  db.add_point(std::move(p));

  // Frozen v1 encoding of exactly the database above. Regenerate
  // ONLY alongside a version bump:
  //   printf("%s\n", to_hex(encode_database(db)).c_str());
  // Layout: "LTDB" magic, u16 version=1, u16 flags=1 (has samples),
  // site "g", BSSID table ["aa"], 1 point "k" at (1.0, 2.0) with one
  // AP record (stats as IEEE64 LE doubles, counts as varints, samples
  // as zigzag-varint delta + RLE runs).
  const std::string expected_hex =
      "4c5444420100010001670102616101016b000000000000f03f00000000000000"
      "4001000000000000004ec0000000000000004003030000000000004fc0000000"
      "0000004dc003df5d0100018f0301";
  EXPECT_EQ(to_hex(traindb::encode_database(db)), expected_hex);
  // And the frozen bytes still decode to the same database.
  EXPECT_EQ(traindb::decode_database(traindb::encode_database(db)), db);
}

TEST(GoldenFormat, WiscanTextShape) {
  wiscan::WiScanFile f;
  f.location = "kitchen";
  f.add({0.0, "aa", "net", 1, -54.0});
  f.add({1.5, "bb", "net", 6, -61.25});
  const std::string expected =
      "# wi-scan v1\n"
      "# location: kitchen\n"
      "# rows: 2\n"
      "time=0 bssid=aa ssid=net channel=1 rssi=-54\n"
      "time=1.5 bssid=bb ssid=net channel=6 rssi=-61.25\n";
  EXPECT_EQ(wiscan::encode_wiscan(f), expected);
  EXPECT_EQ(wiscan::decode_wiscan(expected), f);
}

TEST(GoldenFormat, LocationMapTextShape) {
  wiscan::LocationMap map;
  map.add("kitchen", {42.0, 8.5});
  map.add("Room D22", {10.0, 30.0});
  std::ostringstream os;
  map.write(os);
  const std::string expected =
      "# location-map v1\n"
      "kitchen\t42\t8.5\n"
      "\"Room D22\"\t10\t30\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(GoldenFormat, ArchiveBytes) {
  wiscan::Archive ar;
  ar.add("a", "xy");
  std::ostringstream os;
  ar.write(os);
  // "LAR1", u64 count=1, u64 name-len=1, "a", u64 data-len=2, "xy".
  const std::string expected_hex =
      "4c41523101000000000000000100000000000000610200000000000000"
      "7879";
  EXPECT_EQ(to_hex(os.str()), expected_hex);
}

}  // namespace
}  // namespace loctk

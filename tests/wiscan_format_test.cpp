// Unit tests for the wi-scan text format: writer + tolerant parser.

#include "wiscan/format.hpp"

#include <fstream>
#include <initializer_list>

#include <gtest/gtest.h>

namespace loctk::wiscan {
namespace {

WiScanFile file_of(std::initializer_list<WiScanEntry> entries) {
  WiScanFile f;
  for (const WiScanEntry& e : entries) f.add(e);
  return f;
}

WiScanFile sample_file() {
  WiScanFile f = file_of({
      {0.0, "00:17:AB:00:00:00", "loctk", 1, -54.0},
      {0.0, "00:17:AB:00:00:01", "loctk", 6, -61.0},
      {1.0, "00:17:AB:00:00:00", "loctk", 1, -55.5},
  });
  f.location = "kitchen";
  return f;
}

TEST(Format, RoundTripExact) {
  const WiScanFile f = sample_file();
  EXPECT_EQ(decode_wiscan(encode_wiscan(f)), f);
}

TEST(Format, LocationHeaderWins) {
  const WiScanFile parsed =
      decode_wiscan("# location: lab-3\nbssid=aa rssi=-50\n", "fallback");
  EXPECT_EQ(parsed.location, "lab-3");
}

TEST(Format, FallbackLocationUsedWithoutHeader) {
  const WiScanFile parsed =
      decode_wiscan("bssid=aa rssi=-50\n", "fallback");
  EXPECT_EQ(parsed.location, "fallback");
}

TEST(Format, ToleratesCommentsBlanksAndCrlf) {
  const std::string text =
      "# wi-scan v1\r\n"
      "\r\n"
      "   \t\n"
      "# a comment\n"
      "bssid=aa rssi=-50\r\n"
      "\n"
      "bssid=bb rssi=-60\n";
  const WiScanFile f = decode_wiscan(text);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.entry(0).bssid, "aa");
  EXPECT_EQ(f.entry(1).rssi_dbm, -60.0);
}

TEST(Format, KeysInAnyOrderUnknownKeysIgnored) {
  const WiScanFile f = decode_wiscan(
      "rssi=-44 channel=11 future_field=xyz bssid=cc time=3.5 ssid=net\n");
  ASSERT_EQ(f.size(), 1u);
  const WiScanEntry e = f.entry(0);
  EXPECT_EQ(e.bssid, "cc");
  EXPECT_EQ(e.rssi_dbm, -44.0);
  EXPECT_EQ(e.channel, 11);
  EXPECT_EQ(e.ssid, "net");
  EXPECT_EQ(e.timestamp_s, 3.5);
}

TEST(Format, TimeDefaultsToPreviousRow) {
  const WiScanFile f = decode_wiscan(
      "time=2.0 bssid=aa rssi=-50\n"
      "bssid=bb rssi=-51\n"          // inherits 2.0
      "time=3.0 bssid=aa rssi=-52\n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f.entry(1).timestamp_s, 2.0);
  EXPECT_EQ(f.entry(2).timestamp_s, 3.0);
}

TEST(Format, MalformedRowsThrow) {
  EXPECT_THROW(decode_wiscan("rssi=-50\n"), FormatError);        // no bssid
  EXPECT_THROW(decode_wiscan("bssid=aa\n"), FormatError);        // no rssi
  EXPECT_THROW(decode_wiscan("bssid=aa rssi=abc\n"), FormatError);
  EXPECT_THROW(decode_wiscan("bssid=aa rssi=-50 naked\n"), FormatError);
  EXPECT_THROW(decode_wiscan("bssid=aa rssi=-50x\n"), FormatError);
  EXPECT_THROW(decode_wiscan("=v bssid=aa rssi=-50\n"), FormatError);
}

TEST(Format, ScanCountDistinctTimestamps) {
  const WiScanFile f = file_of({{0.0, "a", "", 0, -50.0},
                                {0.0, "b", "", 0, -51.0},
                                {1.0, "a", "", 0, -52.0},
                                {2.0, "a", "", 0, -53.0}});
  EXPECT_EQ(f.scan_count(), 3u);
  EXPECT_EQ(WiScanFile{}.scan_count(), 0u);
}

TEST(Format, BssidsFirstHeardOrder) {
  const WiScanFile f = file_of({{0.0, "bb", "", 0, -50.0},
                                {0.0, "aa", "", 0, -51.0},
                                {1.0, "bb", "", 0, -52.0}});
  const auto& ids = f.bssids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "bb");
  EXPECT_EQ(ids[1], "aa");
}

TEST(Format, FileRoundTripThroughDisk) {
  const auto dir =
      std::filesystem::temp_directory_path() / "loctk_wiscan_fmt";
  std::filesystem::create_directories(dir);
  const WiScanFile f = sample_file();
  const auto path = dir / "kitchen.wiscan";
  write_wiscan(path, f);
  EXPECT_EQ(read_wiscan(path), f);
  std::filesystem::remove_all(dir);
}

TEST(Format, ReadFromDiskUsesStemWhenNoHeader) {
  const auto dir =
      std::filesystem::temp_directory_path() / "loctk_wiscan_stem";
  std::filesystem::create_directories(dir);
  const auto path = dir / "Room D22.wiscan";
  {
    std::ofstream os(path);
    os << "bssid=aa rssi=-50\n";
  }
  EXPECT_EQ(read_wiscan(path).location, "room-d22");
  std::filesystem::remove_all(dir);
}

TEST(SanitizeLocationName, Rules) {
  EXPECT_EQ(sanitize_location_name("Room D22"), "room-d22");
  EXPECT_EQ(sanitize_location_name("Center of Hallway"),
            "center-of-hallway");
  EXPECT_EQ(sanitize_location_name("a/b\\c_d"), "a-b-c-d");
  EXPECT_EQ(sanitize_location_name("trailing  "), "trailing");
  EXPECT_EQ(sanitize_location_name("(parens!)"), "parens");
  EXPECT_EQ(sanitize_location_name(""), "");
}

TEST(EntriesFromScans, FlattensSimulatorOutput) {
  std::vector<radio::ScanRecord> scans(2);
  scans[0].timestamp_s = 0.0;
  scans[0].samples = {{"aa", -50.0, 1}, {"bb", -60.0, 6}};
  scans[1].timestamp_s = 1.0;
  scans[1].samples = {{"aa", -51.0, 1}};
  WiScanFile f;
  append_scans(f, scans, "net");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f.entry(0).bssid, "aa");
  EXPECT_EQ(f.entry(0).ssid, "net");
  EXPECT_EQ(f.entry(1).channel, 6);
  EXPECT_EQ(f.entry(2).timestamp_s, 1.0);
}

}  // namespace
}  // namespace loctk::wiscan

// Unit tests for the ingest substrate: whole-file reads, string_view
// number parsing, line scanning, the wi-scan parser's BSSID/SSID
// interner, and the malformed-input diagnostics of the buffer-oriented
// parsers.

#include "wiscan/scan_buffer.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "wiscan/archive.hpp"
#include "wiscan/format.hpp"

namespace loctk::wiscan {
namespace {

namespace fs = std::filesystem;

// Runs `fn` and returns the thrown exception's message ("" when
// nothing was thrown) so tests can pin diagnostics.
template <typename Ex, typename Fn>
std::string message_of(Fn&& fn) {
  try {
    fn();
  } catch (const Ex& e) {
    return e.what();
  }
  return {};
}

class ScanBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest may run the cases concurrently.
    dir_ = fs::temp_directory_path() /
           (std::string("loctk_scan_buffer_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_file(const std::string& name, const std::string& content) {
    const fs::path p = dir_ / name;
    std::ofstream(p, std::ios::binary) << content;
    return p;
  }

  fs::path dir_;
};

TEST_F(ScanBufferTest, ReadFileBytesRoundTrips) {
  const std::string content = std::string("hello\0world", 11) +
                              "\nbinary \xff bytes";
  const fs::path p = write_file("blob.bin", content);
  EXPECT_EQ(read_file_bytes(p), content);
}

TEST_F(ScanBufferTest, ReadFileBytesMissingFileThrows) {
  EXPECT_THROW(read_file_bytes(dir_ / "missing.bin"), BufferError);
}

TEST_F(ScanBufferTest, FileBufferViewsWholeFile) {
  // The buffer a wi-scan file is parsed from holds every byte of it,
  // and the line scanner walks the whole buffer.
  const std::string content = "line one\nline two\n";
  const fs::path p = write_file("scan.wiscan", content);
  const std::string buffer = read_file_bytes(p);
  EXPECT_EQ(buffer, content);
  EXPECT_EQ(buffer.size(), content.size());
  LineScanner lines(buffer);
  EXPECT_EQ(lines.next(), "line one");
  EXPECT_EQ(lines.next(), "line two");
  EXPECT_EQ(lines.next(), std::nullopt);
  EXPECT_EQ(lines.line_number(), 2u);
}

TEST_F(ScanBufferTest, FileBufferMissingFileThrows) {
  // Both the throwing reader and its structured-error form report a
  // missing wi-scan file as an I/O failure.
  EXPECT_THROW(read_file_bytes(dir_ / "missing.wiscan"), BufferError);
  const Result<std::string> r = try_read_file_bytes(dir_ / "missing.wiscan");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kIo);
}

TEST_F(ScanBufferTest, ReadFileBytesEmptyFileIsEmpty) {
  const fs::path p = write_file("empty.wiscan", "");
  EXPECT_TRUE(read_file_bytes(p).empty());
}

TEST_F(ScanBufferTest, ReadFileBytesRejectsADirectory) {
  EXPECT_THROW(read_file_bytes(dir_), BufferError);
}

TEST(ParseNumber, AcceptsUsualForms) {
  EXPECT_EQ(parse_number("42"), 42.0);
  EXPECT_EQ(parse_number("-61.5"), -61.5);
  EXPECT_EQ(parse_number("+3"), 3.0);  // stod parity
  EXPECT_EQ(parse_number("1e3"), 1000.0);
  EXPECT_EQ(parse_number(".5"), 0.5);
}

TEST(ParseNumber, RejectsMalformedTokens) {
  EXPECT_EQ(parse_number(""), std::nullopt);
  EXPECT_EQ(parse_number("abc"), std::nullopt);
  EXPECT_EQ(parse_number("1.5x"), std::nullopt);  // trailing garbage
  EXPECT_EQ(parse_number("+-5"), std::nullopt);
  EXPECT_EQ(parse_number("--5"), std::nullopt);
  EXPECT_EQ(parse_number(" 1"), std::nullopt);  // no leading space
  EXPECT_EQ(parse_number("12,5"), std::nullopt);  // never locale-dependent
}

TEST(LineScannerTest, SplitsStripsAndCounts) {
  LineScanner lines("first\r\nsecond\nlast without newline");
  auto l = lines.next();
  ASSERT_TRUE(l);
  EXPECT_EQ(*l, "first");  // '\r' stripped
  EXPECT_EQ(lines.line_number(), 1u);
  l = lines.next();
  ASSERT_TRUE(l);
  EXPECT_EQ(*l, "second");
  l = lines.next();
  ASSERT_TRUE(l);
  EXPECT_EQ(*l, "last without newline");
  EXPECT_EQ(lines.line_number(), 3u);
  EXPECT_FALSE(lines.next());
}

TEST(LineScannerTest, EmptyInputYieldsNothing) {
  LineScanner lines("");
  EXPECT_FALSE(lines.next());
}

// --- wi-scan malformed-row diagnostics ------------------------------

TEST(WiScanBuffer, TruncatedRowReportsMissingRssi) {
  const std::string msg = message_of<FormatError>(
      [] { parse_wiscan_buffer("bssid=aa rssi=-50\nbssid=bb\n"); });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing rssi"), std::string::npos) << msg;
}

TEST(WiScanBuffer, RowWithoutBssidReportsIt) {
  const std::string msg = message_of<FormatError>(
      [] { parse_wiscan_buffer("rssi=-50\n"); });
  EXPECT_NE(msg.find("missing bssid"), std::string::npos) << msg;
}

TEST(WiScanBuffer, NonNumericRssiReportsLineAndToken) {
  const std::string msg = message_of<FormatError>([] {
    parse_wiscan_buffer("# header\nbssid=aa rssi=strong\n");
  });
  EXPECT_NE(msg.find("not a number"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'strong'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(WiScanBuffer, EmptyBssidIsRejectedWithLineDiagnostic) {
  // An empty value would otherwise train an AP named ''.
  const std::string msg = message_of<FormatError>([] {
    parse_wiscan_buffer("bssid=aa rssi=-50\nbssid= rssi=-70\n");
  });
  EXPECT_NE(msg.find("empty bssid"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  // The canonical key order falls back to the generic loop and
  // reports the same.
  EXPECT_THROW(parse_wiscan_buffer("time=0 bssid= ssid=net rssi=-70\n"),
               FormatError);
  EXPECT_THROW(parse_wiscan_buffer("bssid=aa bssid= rssi=-70\n"),
               FormatError);
}

TEST(WiScanBuffer, BlankLinesReserveAtMostOneRowPerShortestRow) {
  // The row vector is sized from the writer's `# rows:` header, capped
  // by the 14-byte shortest row, so neither blank lines nor a header
  // that overstates the count reserve more than the bytes could hold.
  const std::string text(std::size_t{1} << 20, '\n');
  const WiScanFile f = parse_wiscan_buffer(text);
  EXPECT_EQ(f.size(), 0u);
  EXPECT_LE(f.rows().capacity(), text.size() / 14 + 1);
  const std::string lying = "# rows: 1000000000\nbssid=a rssi=1\n";
  EXPECT_LE(parse_wiscan_buffer(lying).rows().capacity(),
            lying.size() / 14 + 1);
}

TEST(WiScanBuffer, RowsHeaderReservesExactly) {
  WiScanFile f;
  for (int t = 0; t < 50; ++t) f.add({t * 1.0, "aa", "net", 6, -50.0 - t});
  const WiScanFile parsed = parse_wiscan_buffer(encode_wiscan(f));
  EXPECT_EQ(parsed, f);
  EXPECT_EQ(parsed.rows().capacity(), 50u);
  // Without the header the vector grows as rows arrive.
  const std::string text = encode_wiscan(f);
  const std::size_t header_end = text.find("time=");
  EXPECT_EQ(parse_wiscan_buffer(text.substr(header_end)), parsed);
}

TEST(WiScanBuffer, NonFiniteRssiIsRejectedWithLineDiagnostic) {
  // from_chars/strtod happily accept "inf" and "nan"; a non-finite
  // dBm would poison every downstream mean, so the row layer rejects
  // it like any other malformed token.
  const std::string msg = message_of<FormatError>([] {
    parse_wiscan_buffer("bssid=aa rssi=-50\nbssid=bb rssi=nan\n");
  });
  EXPECT_NE(msg.find("not finite"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_THROW(parse_wiscan_buffer("bssid=aa rssi=inf\n"), FormatError);
  EXPECT_THROW(parse_wiscan_buffer("bssid=aa rssi=-inf\n"), FormatError);
  EXPECT_THROW(parse_wiscan_buffer("bssid=aa rssi=1e999\n"), FormatError);
}

// A channel is stored as an int; converting a value outside int (or a
// non-finite one) is undefined, so each is rejected at its row.
void expect_channel_rejected(const std::string& value) {
  const std::string msg = message_of<FormatError>([&] {
    parse_wiscan_buffer("bssid=aa rssi=-50\nbssid=bb rssi=-60 channel=" +
                        value + "\n");
  });
  EXPECT_EQ(msg, "read_wiscan: channel out of range: '" + value +
                     "' (line 2)");
}

TEST(WiScanBuffer, HugeChannelIsRejectedWithLineDiagnostic) {
  expect_channel_rejected("1e300");
}

TEST(WiScanBuffer, NanChannelIsRejectedWithLineDiagnostic) {
  expect_channel_rejected("nan");
}

TEST(WiScanBuffer, NegativeInfiniteChannelIsRejectedWithLineDiagnostic) {
  expect_channel_rejected("-inf");
}

TEST(WiScanBuffer, ElevenDigitChannelIsRejectedWithLineDiagnostic) {
  expect_channel_rejected("99999999999");
  // The writer's canonical key order takes the same check.
  EXPECT_THROW(parse_wiscan_buffer("time=0 bssid=aa channel=99999999999 "
                                   "rssi=-50\n"),
               FormatError);
  // Finite in-range channels still truncate toward zero.
  const WiScanFile f = parse_wiscan_buffer(
      "bssid=aa rssi=-50 channel=6.9\n"
      "bssid=aa rssi=-50 channel=-2147483648.5\n"
      "bssid=aa rssi=-50 channel=2147483647.5\n");
  EXPECT_EQ(f.rows()[0].channel, 6);
  EXPECT_EQ(f.rows()[1].channel, -2147483647 - 1);
  EXPECT_EQ(f.rows()[2].channel, 2147483647);
}

TEST(WiScanBuffer, NanTimeIsRejectedWithLineDiagnostic) {
  // A NaN timestamp differs from itself, so scan_count would count
  // every such row as a new scan pass.
  const std::string msg = message_of<FormatError>([] {
    parse_wiscan_buffer("time=1 bssid=aa rssi=-50\ntime=nan bssid=bb "
                        "rssi=-60\n");
  });
  EXPECT_EQ(msg, "read_wiscan: time not finite: 'nan' (line 2)");
  EXPECT_THROW(parse_wiscan_buffer("time=-inf bssid=aa rssi=-50\n"),
               FormatError);
}

TEST(WiScanBuffer, NonNumericTimeAndChannelThrow) {
  EXPECT_THROW(parse_wiscan_buffer("time=noon bssid=aa rssi=-50\n"),
               FormatError);
  EXPECT_THROW(parse_wiscan_buffer("bssid=aa rssi=-50 channel=six\n"),
               FormatError);
}

TEST(WiScanBuffer, BareTokenReportsExpectedKeyValue) {
  const std::string msg = message_of<FormatError>(
      [] { parse_wiscan_buffer("bssid=aa rssi=-50 garbage\n"); });
  EXPECT_NE(msg.find("expected key=value"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'garbage'"), std::string::npos) << msg;
}

TEST(WiScanBuffer, CrlfAndNoTrailingNewlineParse) {
  const WiScanFile f = parse_wiscan_buffer(
      "# location: lab\r\nbssid=aa rssi=-50\r\nbssid=bb rssi=-60");
  EXPECT_EQ(f.location, "lab");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.entry(0).bssid, "aa");
  EXPECT_EQ(f.entry(1).rssi_dbm, -60.0);
}

TEST(WiScanBuffer, LocationLabelDropsEveryTrailingCr) {
  // A file converted to CRLF twice: the label must still be "den", or
  // it matches no location-map name and the generator drops the file.
  const WiScanFile f =
      parse_wiscan_buffer("# location: den \r\r\nbssid=aa rssi=-50\r\r\n");
  EXPECT_EQ(f.location, "den");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.entry(0).bssid, "aa");
}

TEST(WiScanBuffer, MatchesIstreamAdapter) {
  const std::string text =
      "# wi-scan v1\n# location: kitchen\n"
      "time=0.5 bssid=aa ssid=net channel=6 rssi=-54\n"
      "bssid=bb rssi=-61\n";
  EXPECT_EQ(parse_wiscan_buffer(text), decode_wiscan(text));
}

// --- the per-parse interner -----------------------------------------

std::string mac(std::size_t i) {
  char buf[18];
  std::snprintf(buf, sizeof buf, "02:00:00:%02zx:%02zx:%02zx", (i >> 16) & 0xff,
                (i >> 8) & 0xff, i & 0xff);
  return buf;
}

TEST(WiScanInterner, FiveThousandDistinctBssidsGrowTheTable) {
  constexpr std::size_t kAps = 5000;
  std::string text;
  // Two passes: the second hears every AP again in reverse order, so
  // each lookup after the table has grown misses the follow-on guess.
  for (std::size_t i = 0; i < kAps; ++i) {
    text += "time=0 bssid=" + mac(i) + " rssi=-" + std::to_string(40 + i % 50) +
            "\n";
  }
  for (std::size_t i = kAps; i-- > 0;) {
    text += "time=1 bssid=" + mac(i) + " rssi=-60\n";
  }
  const WiScanFile f = parse_wiscan_buffer(text);
  ASSERT_EQ(f.bssids().size(), kAps);
  ASSERT_EQ(f.size(), 2 * kAps);
  for (std::size_t i = 0; i < kAps; ++i) {
    EXPECT_EQ(f.bssids()[i], mac(i));
    EXPECT_EQ(f.rows()[i].bssid, i);
    EXPECT_EQ(f.rows()[2 * kAps - 1 - i].bssid, i);
  }
  EXPECT_EQ(f.scan_count(), 2u);
}

TEST(WiScanInterner, BssidsDifferingInOneByteStayDistinct) {
  // Every position of a 17-byte MAC and of a 5-byte name, so both the
  // word-at-a-time and the short-key hash paths see single-byte
  // differences.
  for (const std::string& base : {std::string("00:11:22:33:44:55"),
                                 std::string("ap-01")}) {
    std::vector<std::string> keys{base};
    for (std::size_t pos = 0; pos < base.size(); ++pos) {
      std::string k = base;
      k[pos] = static_cast<char>(k[pos] ^ 0x01);
      keys.push_back(k);
    }
    std::string text;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& k : keys) {
        text += "time=" + std::to_string(pass) + " bssid=" + k +
                " rssi=-50\n";
      }
    }
    const WiScanFile f = parse_wiscan_buffer(text);
    EXPECT_EQ(f.bssids(), keys) << base;
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(f.entry(i).bssid, keys[i % keys.size()]) << base;
    }
  }
}

TEST(WiScanInterner, EmptyAndAbsentSsidAreOneString) {
  const WiScanFile f = parse_wiscan_buffer(
      "time=0 bssid=aa ssid= rssi=-50\n"
      "time=0 bssid=bb rssi=-51\n"
      "time=1 bssid=aa ssid=net rssi=-52\n"
      "time=1 bssid=bb ssid= channel=6 rssi=-53\n");
  EXPECT_EQ(f.ssids(), (std::vector<std::string>{"", "net"}));
  EXPECT_EQ(f.rows()[0].ssid, f.rows()[1].ssid);
  EXPECT_EQ(f.rows()[1].ssid, f.rows()[3].ssid);
  EXPECT_EQ(f.entry(0).ssid, "");
  EXPECT_EQ(f.entry(2).ssid, "net");
  EXPECT_EQ(f.entry(3).channel, 6);
}

TEST(WiScanInterner, RepeatedBssidInOneScanPassKeepsEveryRow) {
  const WiScanFile f = parse_wiscan_buffer(
      "time=0 bssid=aa rssi=-50\n"
      "time=0 bssid=aa rssi=-51\n"
      "time=0 bssid=bb rssi=-60\n"
      "time=1 bssid=aa rssi=-52\n"
      "time=1 bssid=bb rssi=-61\n"
      "time=1 bssid=bb rssi=-62\n");
  EXPECT_EQ(f.bssids(), (std::vector<std::string>{"aa", "bb"}));
  std::vector<std::uint32_t> ids;
  for (const WiScanRow& row : f.rows()) ids.push_back(row.bssid);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 0, 1, 0, 1, 1}));
  EXPECT_EQ(f.entry(1).rssi_dbm, -51.0);
  EXPECT_EQ(f.entry(5).rssi_dbm, -62.0);
  EXPECT_EQ(f.scan_count(), 2u);
}

TEST(WiScanInterner, FileBuiltWithAddRoundTripsThroughText) {
  WiScanFile f;
  f.location = "lab";
  for (int t = 0; t < 3; ++t) {
    f.add({t * 0.5, "00:17:ab:00:00:02", "net", 6, -54.25 - t});
    f.add({t * 0.5, "00:17:ab:00:00:01", "", 0, -61.5});
    f.add({t * 0.5, "00:17:ab:00:00:02", "guest", 11, -70.0});
  }
  EXPECT_EQ(f.bssids().size(), 2u);
  EXPECT_EQ(f.ssids(), (std::vector<std::string>{"net", "", "guest"}));
  EXPECT_EQ(decode_wiscan(encode_wiscan(f)), f);
  // Rebuilding row by row yields the same file.
  WiScanFile copy;
  copy.location = f.location;
  for (std::size_t i = 0; i < f.size(); ++i) copy.add(f.entry(i));
  EXPECT_EQ(copy, f);
}

// --- location-map malformed-row diagnostics -------------------------

TEST(LocationMapBuffer, ParsesQuotedNamesAndComments) {
  const LocationMap map = parse_location_map_buffer(
      "# location-map v1\r\n"
      "kitchen 42.0 8.5\r\n"
      "\"Room D22\" 10.0 30.0\n");
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.locations()[1].name, "Room D22");
  EXPECT_EQ(map.locations()[1].position.x, 10.0);
}

TEST(LocationMapBuffer, TruncatedRowReportsMissingCoordinates) {
  const std::string msg = message_of<LocationMapError>(
      [] { parse_location_map_buffer("kitchen 42.0\n"); });
  EXPECT_NE(msg.find("expected two coordinates"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
}

TEST(LocationMapBuffer, NonNumericCoordinateThrows) {
  EXPECT_THROW(parse_location_map_buffer("kitchen north 8.5\n"),
               LocationMapError);
}

TEST(LocationMapBuffer, TrailingGarbageIsRejectedNotSilentlyDropped) {
  const std::string msg = message_of<LocationMapError>([] {
    parse_location_map_buffer("hall 1.0 2.0\nkitchen 42.0 8.5 9.9\n");
  });
  EXPECT_NE(msg.find("trailing garbage"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'9.9'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(LocationMapBuffer, NonFiniteCoordinatesAreRejectedWithLineDiagnostic) {
  const std::string msg = message_of<LocationMapError>([] {
    parse_location_map_buffer("hall 1.0 2.0\nroom nan inf\n");
  });
  EXPECT_EQ(msg, "location-map: line 2: coordinate not finite: 'nan'");
  EXPECT_THROW(parse_location_map_buffer("room 1.0 inf\n"), LocationMapError);
  EXPECT_THROW(parse_location_map_buffer("room -1e999 2\n"), LocationMapError);
}

TEST(LocationMapBuffer, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_location_map_buffer("\"Room D22 10.0 30.0\n"),
               LocationMapError);
}

// --- archive byte-level parsing -------------------------------------

TEST(ArchiveBytes, ReadBytesMatchesStreamRead) {
  Archive ar;
  ar.add("a.wiscan", "bssid=aa rssi=-50\n");
  ar.add("sub/b.wiscan", std::string("\x00\x01\x02", 3));
  std::ostringstream os;
  ar.write(os);
  const Archive parsed = Archive::read_bytes(os.str());
  EXPECT_EQ(parsed.entries(), ar.entries());
}

TEST(ArchiveBytes, CorruptContainersThrow) {
  EXPECT_THROW(Archive::read_bytes("NOPE"), ArchiveError);
  EXPECT_THROW(Archive::read_bytes(""), ArchiveError);
  Archive ar;
  ar.add("a.wiscan", "bssid=aa rssi=-50\n");
  std::ostringstream os;
  ar.write(os);
  const std::string bytes = os.str();
  // Truncation anywhere inside the entry table must throw, never read
  // out of bounds.
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{5}}) {
    EXPECT_THROW(Archive::read_bytes(bytes.substr(0, cut)), ArchiveError);
  }
}

}  // namespace
}  // namespace loctk::wiscan

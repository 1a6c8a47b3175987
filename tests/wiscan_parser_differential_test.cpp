// The word-at-a-time wi-scan parser raced against the line-and-token
// parser it replaced (testkit/wiscan_reference.hpp): writer output,
// hand-written edge cases, and seeded mutants must agree on accept or
// reject, on the diagnostic, and on every parsed row bit for bit. The
// allowed differences are a row with a non-finite time or a channel
// outside int, which the shipped parser rejects at that line, and a
// `# location:` label the reference leaves a trailing CR in.

#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testkit/wiscan_reference.hpp"
#include "wiscan/format.hpp"
#include "wiscan/record.hpp"

namespace loctk::testkit {
namespace {

// The writer's output for `passes` passes over `aps` APs; fractional
// values when `fractional`.
std::string written(int passes, int aps, bool fractional) {
  wiscan::WiScanFile f;
  f.location = "lab";
  for (int t = 0; t < passes; ++t) {
    for (int a = 0; a < aps; ++a) {
      if ((t + a) % 7 == 3) continue;  // an AP missing from a pass
      f.add({fractional ? t * 0.25 : t,
             "00:17:ab:00:" + std::to_string(10 + a / 10) + ":" +
                 std::to_string(10 + a % 10),
             a % 5 == 0 ? "" : "net", (a * 5) % 14,
             fractional ? -40.5 - a - 0.125 * t : -40.0 - (a * 7 + t) % 50});
    }
  }
  return wiscan::encode_wiscan(f);
}

TEST(WiScanParserDifferential, WriterOutputMatches) {
  for (const bool fractional : {false, true}) {
    for (const int aps : {1, 4, 60}) {
      const std::string text = written(12, aps, fractional);
      EXPECT_EQ(wiscan_parse_mismatch(text, "fallback"), "") << text;
    }
  }
}

TEST(WiScanParserDifferential, EdgeCasesMatch) {
  const std::vector<std::string> cases = {
      "",
      "\n",
      "\r\n\r\n",
      "\r",
      "   \n\t\t\r\n",
      "  \r\r\n",
      "\v\n",
      "\r#x=1\n",
      "  # location: hall  \r\nbssid=a rssi=1",
      "# location:\t\n# location: den \r\r\nbssid=a rssi=1\n",
      "# location: den \r\r\n",
      "# location: den \r \r\r\nbssid=a rssi=1\n",
      "# location: hall\n# location: \r\r\nbssid=a rssi=1\n",
      "# rows: 3\nbssid=a rssi=1\n# rows: 99999999999999999999999\n",
      "# rows: -4\n# rows:\nbssid=a rssi=1\n",
      "bssid=a rssi=1",
      "bssid=a\trssi=1\fchannel=6\vssid=n\n",
      "rssi=-50 bssid=aa time=3\nbssid=bb rssi=-51\n",
      "time=1 bssid=aa rssi=-1\ntime=1 bssid=bb rssi=-2\ntime=1.0 bssid=aa "
      "rssi=-3\n",
      "time=2 time=5 bssid=a bssid=b rssi=1 rssi=2\n",
      "time=1 bssid=a rssi=1 vendor=x =y\n",
      "time=1 bssid=a rssi=1 garbage\n",
      "time= bssid=a rssi=1\n",
      "bssid= rssi=1\n",
      "bssid=a ssid= channel= rssi=1\n",
      "bssid=a rssi=\n",
      "bssid=a rssi=-\n",
      "bssid=a rssi=+5 channel=+7 time=+1\n",
      "bssid=a rssi=-0 time=-0\n",
      "bssid=a rssi=1e3 time=.5 channel=5.\n",
      "bssid=a rssi=1.2.3\n",
      "bssid=a rssi=12345678\nbssid=a rssi=123456789012345\n",
      "bssid=a rssi=1234567890123456 time=00000000000000001\n",
      "bssid=a rssi=0x10\n",
      "bssid=a rssi=nan\n",
      "bssid=a rssi=-inf\n",
      "bssid=a rssi=1e999\n",
      "bssid=a rssi=1 channel=2147483647.9 time=1e300\n",
      "bssid=a rssi=1 channel=-2147483648.9\n",
      "bssid=a rssi=1 channel=2147483648\n",
      "bssid=a rssi=1 channel=1e300\n",
      "bssid=a rssi=1 channel=nan\n",
      "bssid=a rssi=1 channel=-inf\n",
      "bssid=a rssi=1 channel=99999999999\n",
      "time=0 bssid=a channel=99999999999 rssi=1\n",
      "time=0 bssid=a channel=99999999999 rssi=x\n",
      "bssid=a rssi=1 time=nan\n",
      "time=nan bssid= rssi=x\n",
      "time=inf\n",
      std::string("bssid=a\x01z rssi=1\x02\n", 19),
      std::string("bssid=\0\0 rssi=1\n", 16),
      "bssid=\xff\xfe rssi=-1\n",
      "bssid=00:11:22:33:44:55:66:77:88:99 rssi=-1\n",
      "time=0 bssid=00:17:AB:00:00:00 ssid=loctk channel=1 rssi=-66",
      "time=0 bssid=00:17:AB:00:00:00 ssid=loctk channel=1 rssi=-66 \r\n",
  };
  for (const std::string& text : cases) {
    EXPECT_EQ(wiscan_parse_mismatch(text, "fallback"), "") << text;
  }
}

TEST(WiScanParserDifferential, NewRejectionsAreTheOnlyDifference) {
  // The reference flags these rows instead of converting them; the
  // shipped parser rejects each at its line.
  for (const char* text :
       {"bssid=a rssi=1\nbssid=a rssi=1 channel=1e300\n",
        "bssid=a rssi=1\nbssid=a rssi=1 time=nan\n",
        "bssid=a rssi=1\ntime=0 bssid=a channel=-99999999999 rssi=1\n"}) {
    EXPECT_EQ(reference_parse_wiscan(text).unchecked_line, 2u) << text;
    EXPECT_EQ(wiscan_parse_mismatch(text), "") << text;
  }
}

// One seeded corruption: a byte overwrite, a cut, an insertion of a
// delimiter or '=', or a number swapped for a hostile one.
void mutate(std::string& text, std::mt19937_64& rng) {
  static const std::vector<std::string> kNumbers = {
      "nan", "inf", "-inf", "1e300", "9999999999999999", "-0", "+5",
      "1e-5", "0x10", "2147483648", "12345678", "-", "", "7.", ".25"};
  static const std::string kBytes = " \t\r\n\v\f=#-.0123456789e\x01\xff";
  if (text.empty()) {
    text = kNumbers[rng() % kNumbers.size()];
    return;
  }
  const std::size_t at = rng() % text.size();
  switch (rng() % 5) {
    case 0:
      text[at] = kBytes[rng() % kBytes.size()];
      break;
    case 1:
      text.resize(at);
      break;
    case 2:
      text.insert(at, 1, kBytes[rng() % kBytes.size()]);
      break;
    default: {
      // The value after the next '=' becomes a hostile number.
      const std::size_t eq = text.find('=', at);
      if (eq == std::string::npos) break;
      const std::size_t end = text.find_first_of(" \t\r\n", eq + 1);
      text.replace(eq + 1,
                   (end == std::string::npos ? text.size() : end) - eq - 1,
                   kNumbers[rng() % kNumbers.size()]);
      break;
    }
  }
}

TEST(WiScanParserDifferential, SeededMutantsMatch) {
  std::mt19937_64 rng(0x5ca1ab1e);
  const std::vector<std::string> goldens = {written(4, 6, false),
                                            written(4, 6, true)};
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string text = goldens[static_cast<std::size_t>(i) % goldens.size()];
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) mutate(text, rng);
    const std::string mismatch = wiscan_parse_mismatch(text, "fallback");
    ASSERT_EQ(mismatch, "") << "mutant " << i << ":\n" << text;
    accepted += reference_parse_wiscan(text).file.has_value() ? 1 : 0;
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 300);
  EXPECT_LT(accepted, 2700);
}

}  // namespace
}  // namespace loctk::testkit

// Randomized corruption fuzz driver for the ingest decoders.
//
// Mutates known-good training-database bytes, wi-scan text, archive
// containers, and location maps, then pushes every mutant through the
// structured-error entry points. The contract under test: *every*
// outcome is either a successfully decoded value or a typed
// `loctk::Error` — never an uncaught exception, never UB. Every wi-scan
// mutant that parses is also checked against the interner: rebuilt
// row by row with `add(entry(i))` it must equal itself, and
// `build_training_point` must match the seed's string-keyed std::map
// grouping on every AP's count, mean, sigma, min and max, bit for bit,
// and every wi-scan mutant is raced against the reference parser
// (testkit/wiscan_reference.hpp): same accept or reject, same
// diagnostic, same rows. The text targets also swap numbers for hostile
// ones (nan, inf, 1e300, 16-digit integers). The CI sanitizer job runs
// this under ASan/UBSan with float-cast-overflow, where any
// out-of-bounds read or out-of-range float-to-int conversion during
// decoding aborts the process.
//
// Usage: fuzz_codec [iterations-per-target] [seed]
// Defaults: 2000 iterations per target, fixed seed (deterministic).

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "stats/running_stats.hpp"
#include "testkit/wiscan_reference.hpp"
#include "traindb/codec.hpp"
#include "traindb/database.hpp"
#include "traindb/generator.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/scan_buffer.hpp"

namespace {

using loctk::ErrorCode;

std::string golden_db_bytes() {
  loctk::traindb::TrainingDatabase db;
  db.set_site_name("fuzz-bench");
  for (int i = 0; i < 6; ++i) {
    loctk::traindb::TrainingPoint p;
    p.location = "point-" + std::to_string(i);
    p.position = {i * 8.0, 40.0 - i * 4.0};
    for (int a = 0; a < 3; ++a) {
      loctk::traindb::ApStatistics s;
      s.bssid = "aa:bb:cc:dd:" + std::to_string(10 + i) + ":0" +
                std::to_string(a);
      s.mean_dbm = -45.0 - 2.0 * a - i;
      s.stddev_db = 2.5 + a;
      s.sample_count = 90;
      s.scan_count = 90;
      s.min_dbm = -70.0;
      s.max_dbm = -40.0;
      for (int k = 0; k < 64; ++k) {
        s.samples_centi_dbm.push_back(-4500 - 100 * a - (k % 11) * 25);
      }
      p.per_ap.push_back(std::move(s));
    }
    db.add_point(std::move(p));
  }
  return loctk::traindb::encode_database(db);
}

std::string golden_wiscan_text() {
  std::string text = "# wi-scan v1\n# location: fuzz-room\n";
  for (int t = 0; t < 10; ++t) {
    for (int a = 0; a < 6; ++a) {
      text += "time=" + std::to_string(t) + ".5 bssid=00:11:22:33:44:0" +
              std::to_string(a) + " ssid=corp channel=" +
              std::to_string(1 + (a * 5) % 11) + " rssi=-" +
              std::to_string(42 + 3 * a + (t * 7) % 9) + ".25\n";
    }
  }
  return text;
}

std::string golden_archive_bytes() {
  loctk::wiscan::Archive ar;
  const std::string scan = golden_wiscan_text();
  for (int i = 0; i < 4; ++i) {
    ar.add("survey/room-" + std::to_string(i) + ".wiscan", scan);
  }
  std::ostringstream os;
  ar.write(os);
  return os.str();
}

// One structural mutation: overwrite, truncate, append, or excise.
void mutate(std::string& bytes, std::mt19937_64& rng) {
  if (bytes.empty()) {
    bytes.push_back(static_cast<char>(rng() & 0xff));
    return;
  }
  switch (rng() % 6) {
    case 0:
      bytes.resize(rng() % bytes.size());
      break;
    case 1:
      for (int i = 0; i < 12; ++i) {
        bytes.push_back(static_cast<char>(rng() & 0xff));
      }
      break;
    case 2:
      bytes.erase(rng() % bytes.size(), 1 + rng() % 24);
      break;
    default: {
      const int n = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < n; ++i) {
        bytes[rng() % bytes.size()] = static_cast<char>(rng() & 0xff);
      }
      break;
    }
  }
}

// Replaces the value after the next '=' or space past a random offset
// with a hostile number: the float-to-int and finiteness checks of the
// text parsers only see such tokens by this route.
void mutate_number(std::string& bytes, std::mt19937_64& rng) {
  static const char* const kNumbers[] = {
      "nan", "-nan", "inf", "-inf", "1e300", "-1e300", "9999999999999999",
      "-9999999999999999", "99999999999", "2147483648", "-0", "1e-320"};
  if (bytes.empty()) return;
  const std::size_t sep = bytes.find_first_of("= ", rng() % bytes.size());
  if (sep == std::string::npos) return;
  const std::size_t end = bytes.find_first_of(" \t\r\n", sep + 1);
  bytes.replace(sep + 1,
                (end == std::string::npos ? bytes.size() : end) - sep - 1,
                kNumbers[rng() % std::size(kNumbers)]);
}

struct Tally {
  long ok = 0;
  long typed[5] = {0, 0, 0, 0, 0};
  long escaped = 0;  // anything not a value / typed Error — a failure
  long mismatched = 0;  // decoded values that failed their check

  void count(const loctk::Error& e) {
    typed[static_cast<int>(e.code())]++;
  }
  long rejected() const {
    long sum = 0;
    for (const long t : typed) sum += t;
    return sum;
  }
};

void report(const char* target, const Tally& t, long iterations) {
  std::printf(
      "%-14s %7ld iters: %6ld ok, %6ld rejected "
      "(io=%ld parse=%ld corrupt=%ld degenerate=%ld internal=%ld), "
      "%ld escaped, %ld mismatched\n",
      target, iterations, t.ok, t.rejected(), t.typed[0], t.typed[1],
      t.typed[2], t.typed[3], t.typed[4], t.escaped, t.mismatched);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The interner's two promises on one parsed wi-scan file: rebuilding
// it row by row gives an equal file, and the generator's counting-sort
// grouping matches the seed's std::map grouping bit for bit.
bool interned_file_holds(const loctk::wiscan::WiScanFile& file) {
  loctk::wiscan::WiScanFile rebuilt;
  rebuilt.location = file.location;
  for (std::size_t i = 0; i < file.size(); ++i) rebuilt.add(file.entry(i));
  if (!(rebuilt == file)) return false;

  std::map<std::string, std::vector<double>> grouped;
  for (std::size_t i = 0; i < file.size(); ++i) {
    const loctk::wiscan::WiScanEntry e = file.entry(i);
    grouped[e.bssid].push_back(e.rssi_dbm);
  }
  loctk::traindb::GeneratorConfig config;
  config.min_samples_per_ap = 1;
  const loctk::traindb::TrainingPoint point =
      loctk::traindb::build_training_point(file, {0.0, 0.0}, config);
  if (point.per_ap.size() != grouped.size()) return false;
  auto group = grouped.begin();
  for (const loctk::traindb::ApStatistics& ap : point.per_ap) {
    const auto& [bssid, readings] = *group++;
    loctk::stats::RunningStats rs;
    for (const double r : readings) rs.add(r);
    if (ap.bssid != bssid || ap.sample_count != readings.size() ||
        !same_bits(ap.mean_dbm, rs.mean()) ||
        !same_bits(ap.stddev_db, rs.stddev()) ||
        !same_bits(ap.min_dbm, rs.min()) ||
        !same_bits(ap.max_dbm, rs.max())) {
      return false;
    }
  }
  return true;
}

// Every decoded value passes; targets with a deeper contract override.
struct AcceptAll {
  template <typename T>
  bool operator()(const T&) const {
    return true;
  }
};

// `text` targets also get number mutations, one mutant in two.
template <typename TryDecode, typename Check = AcceptAll>
Tally fuzz_target(const std::string& golden, long iterations,
                  std::uint64_t seed, bool text, TryDecode&& try_decode,
                  Check&& check = {}) {
  std::mt19937_64 rng(seed);
  Tally tally;
  for (long i = 0; i < iterations; ++i) {
    std::string bytes = golden;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) mutate(bytes, rng);
    if (text && rng() % 2 == 0) mutate_number(bytes, rng);
    try {
      const auto result = try_decode(bytes);
      if (result.ok()) {
        ++tally.ok;
        if (!check(result.value())) ++tally.mismatched;
      } else {
        tally.count(result.error());
      }
    } catch (...) {
      // try_* entry points promise not to throw; reaching here is the
      // bug this driver exists to catch.
      ++tally.escaped;
    }
  }
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  const long iterations = argc > 1 ? std::atol(argv[1]) : 2000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0x10c7f0221ull;

  long escaped = 0;
  long mismatched = 0;

  {
    const Tally t = fuzz_target(
        golden_db_bytes(), iterations, seed, false,
        [](const std::string& b) {
          return loctk::traindb::try_decode_database(b);
        });
    report("traindb", t, iterations);
    escaped += t.escaped;
  }
  long oracle_mismatched = 0;
  {
    const Tally t = fuzz_target(
        golden_wiscan_text(), iterations, seed ^ 0x1111, true,
        [&oracle_mismatched](const std::string& b) {
          const std::string diff =
              loctk::testkit::wiscan_parse_mismatch(b, "fallback");
          if (!diff.empty()) {
            if (oracle_mismatched++ == 0) {
              std::fprintf(stderr, "oracle mismatch: %s\n", diff.c_str());
            }
          }
          return loctk::wiscan::try_parse_wiscan_buffer(b, "fallback");
        },
        interned_file_holds);
    report("wiscan", t, iterations);
    std::printf("%-14s %7ld iters: %ld mismatches against the reference parser\n",
                "wiscan-oracle", iterations, oracle_mismatched);
    escaped += t.escaped;
    mismatched += t.mismatched;
  }
  {
    // The archive reader still speaks exceptions; adapt inline so the
    // container format gets the same treatment.
    const Tally t = fuzz_target(
        golden_archive_bytes(), iterations, seed ^ 0x2222, false,
        [](const std::string& b)
            -> loctk::Result<loctk::wiscan::Archive> {
          try {
            return loctk::wiscan::Archive::read_bytes(b);
          } catch (const loctk::wiscan::ArchiveError& e) {
            return loctk::Error(ErrorCode::kCorrupt, e.what());
          }
        });
    report("archive", t, iterations);
    escaped += t.escaped;
  }
  {
    const std::string map =
        "# location-map v1\nkitchen 1.0 2.0\nhall 3.5 4.5\n\"den x\" 9 9\n";
    const Tally t = fuzz_target(
        map, iterations, seed ^ 0x3333, true, [](const std::string& b) {
          return loctk::wiscan::try_parse_location_map_buffer(b);
        });
    report("locmap", t, iterations);
    escaped += t.escaped;
  }

  if (escaped != 0) {
    std::fprintf(stderr, "FAIL: %ld mutants escaped the taxonomy\n",
                 escaped);
    return 1;
  }
  if (oracle_mismatched != 0) {
    std::fprintf(stderr,
                 "FAIL: %ld wi-scan mutants parsed differently from the "
                 "reference parser\n",
                 oracle_mismatched);
    return 1;
  }
  if (mismatched != 0) {
    std::fprintf(stderr,
                 "FAIL: %ld parsed wi-scan mutants broke the interner's "
                 "rebuild or grouping contract\n",
                 mismatched);
    return 1;
  }
  std::printf(
      "all mutants handled: value or typed error, zero escapes, zero "
      "mismatches, zero oracle differences\n");
  return 0;
}

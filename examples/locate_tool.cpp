// locate_tool — the working phase (paper Figure 1, steps 5-6) as a
// CLI: load a training database, read an observation capture (a
// wi-scan file recorded wherever the client is standing), and print
// where each fingerprint algorithm puts the client.
//
//   locate_tool <db.ltdb> <observation.wiscan> [--alg ALG] [--stats]
//
// ALG: all (default) | prob | nnss | knn | bayes
// --stats dumps the process metrics snapshot (locate latency, counts)
// to stderr after the estimates.
//
// Geometric ranging is not offered here because the database carries
// only signal statistics, not AP positions; use the library API with
// a radio::Environment for that path.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/metrics.hpp"
#include "core/bayes.hpp"
#include "core/knn.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "traindb/codec.hpp"
#include "wiscan/format.hpp"

using namespace loctk;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: locate_tool <db.ltdb> <observation.wiscan> "
               "[--alg all|prob|nnss|knn|bayes] [--stats]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string alg = "all";
  bool stats = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--alg") == 0 && i + 1 < argc) {
      alg = argv[++i];
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else {
      return usage();
    }
  }

  try {
    const traindb::TrainingDatabase db = traindb::read_database(argv[1]);
    const wiscan::WiScanFile capture = wiscan::read_wiscan(argv[2]);
    const core::Observation obs = core::Observation::from_entries(capture);
    std::printf("database: %zu training points, %zu APs (site \"%s\")\n",
                db.size(), db.bssid_universe().size(),
                db.site_name().c_str());
    std::printf("observation: %zu scan passes, %zu APs heard\n",
                capture.scan_count(), obs.ap_count());

    std::vector<std::unique_ptr<core::Locator>> locators;
    if (alg == "all" || alg == "prob") {
      locators.push_back(std::make_unique<core::ProbabilisticLocator>(db));
    }
    if (alg == "all" || alg == "nnss") {
      locators.push_back(
          std::make_unique<core::KnnLocator>(db, core::KnnConfig{.k = 1}));
    }
    if (alg == "all" || alg == "knn") {
      locators.push_back(
          std::make_unique<core::KnnLocator>(db, core::KnnConfig{.k = 3}));
    }
    if (alg == "all" || alg == "bayes") {
      locators.push_back(std::make_unique<core::BayesGridLocator>(db));
    }
    if (locators.empty()) return usage();

    for (const auto& locator : locators) {
      // try_locate is the instrumented entry point (locate.* metrics)
      // and distinguishes degenerate observations from real failures.
      const Result<core::LocationEstimate> result = locator->try_locate(obs);
      if (!result.ok()) {
        std::printf("%-18s -> no estimate (%s)\n", locator->name().c_str(),
                    result.error().message().c_str());
        continue;
      }
      const core::LocationEstimate& est = result.value();
      std::printf("%-18s -> (%6.1f, %6.1f) ft", locator->name().c_str(),
                  est.position.x, est.position.y);
      if (!est.location_name.empty()) {
        std::printf("  place \"%s\"", est.location_name.c_str());
      }
      std::printf("  (score %.2f, %d APs)\n", est.score, est.aps_used);
    }
    if (stats) {
      std::fprintf(stderr, "%s",
                   metrics::MetricsRegistry::global()
                       .snapshot()
                       .to_text()
                       .c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

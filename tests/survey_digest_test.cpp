// Survey digest tests, quick tier: the paper house and a 6-AP office
// floor (survey_digest.hpp says what is pinned). The campus case is
// in survey_digest_conformance_test.cpp.

#include "survey_digest.hpp"

#include "core/evaluation.hpp"
#include "radio/environment.hpp"

namespace loctk::testing {
namespace {

TEST_F(SurveyDigest, PaperHouse) {
  const core::Testbed testbed(radio::make_paper_house());
  const wiscan::LocationMap map =
      core::make_training_grid(testbed.environment().footprint());
  survey(testbed, map, 90);
  expect_digests(map, 0x65ed06487ae063feULL, 0x35b6dac1a88b8460ULL);
}

TEST_F(SurveyDigest, OfficeFloorSixAps) {
  const core::Testbed testbed(radio::make_office_floor(6));
  const wiscan::LocationMap map =
      core::make_training_grid(testbed.environment().footprint());
  survey(testbed, map, 30);
  expect_digests(map, 0xf230aa88148d6861ULL, 0x0524dcab79177028ULL);
}

}  // namespace
}  // namespace loctk::testing

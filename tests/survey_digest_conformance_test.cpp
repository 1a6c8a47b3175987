// Survey digest, conformance tier: the stock 1020-AP campus takes a
// few seconds to survey, so it stays out of the quick loop
// (survey_digest.hpp says what is pinned).

#include <memory>
#include <string>
#include <vector>

#include "survey_digest.hpp"

#include "radio/campus.hpp"

namespace loctk::testing {
namespace {

// The stock 1020-AP campus, every room of every floor surveyed for 10
// passes into one directory (the scanbench campus_fleet survey shape).
TEST_F(SurveyDigest, Campus1020Aps) {
  const std::unique_ptr<radio::Campus> campus = radio::make_campus();
  wiscan::LocationMap all;
  for (std::size_t b = 0; b < campus->building_count(); ++b) {
    const std::vector<geom::Vec2> rooms = campus->room_centers(b);
    for (std::size_t f = 0; f < campus->floors_per_building(); ++f) {
      const std::string tag =
          "B" + std::to_string(b) + "F" + std::to_string(f) + "-R";
      wiscan::LocationMap floor_map;
      for (std::size_t r = 0; r < rooms.size(); ++r) {
        floor_map.add(tag + std::to_string(r), rooms[r]);
        all.add(tag + std::to_string(r), rooms[r]);
      }
      const radio::CampusFloorView view(*campus, b, f);
      radio::Scanner scanner(view, radio::ChannelConfig{},
                             9001 + campus->flat_floor(b, f));
      wiscan::SurveyConfig config;
      config.scans_per_location = 10;
      wiscan::SurveyCampaign(scanner, config).run_to_directory(floor_map,
                                                               dir_);
    }
  }
  expect_digests(all, 0x1f220b68879f18ebULL, 0x03ef4c149e02fd6eULL);
}

}  // namespace
}  // namespace loctk::testing

#pragma once

/// \file fleet_frame.hpp
/// Campus fleet frames: one visual per soak tick.
///
/// The paper's Compositor draws one device on one floor plan; a
/// campus soak wants a picture of the whole deployment every tick —
/// per-room coverage heat, every building footprint, every ground
/// floor AP with its label, and a marker for every device's
/// ground-truth position at that tick. `FleetFrameBuilder` turns a
/// campus `Scenario` + `ScanTrace` into `FleetFrameSpec` draw lists
/// the `FleetCompositor` renders: the expensive static layer (heat
/// cells, outlines, AP labels) is built once, then each tick's frame
/// appends only that tick's device markers.
///
/// Coordinates: campus feet map to pixels as
///   px = margin_px + round(ft * px_per_ft)
/// using the campus global frame (building b at
/// x ∈ [b·(width+gap), …+width), y ∈ [0, depth]).

#include <cstddef>

#include "floorplan/fleet_compositor.hpp"
#include "testkit/scenario.hpp"
#include "testkit/trace.hpp"

namespace loctk::testkit {

struct FleetFrameOptions {
  /// Pixels per campus foot.
  double px_per_ft = 2.0;
  /// Blank border around the campus extent.
  int margin_px = 18;
  /// Device marker half-size in pixels.
  int device_radius_px = 2;
  /// Label every `label_every`-th ground-floor AP (1 labels all; the
  /// stock campus has 170 per building, which fits at the default).
  int label_every = 1;
};

/// Builds per-tick frame specs for a campus scenario. The scenario
/// must outlive the builder. Throws (via `Scenario::campus()`) when
/// the scenario is not a campus.
class FleetFrameBuilder {
 public:
  explicit FleetFrameBuilder(const Scenario& scenario,
                             FleetFrameOptions options = {});

  int width() const { return base_.width; }
  int height() const { return base_.height; }

  /// The static layer: heat cells, footprints, AP markers + labels.
  const floorplan::FleetFrameSpec& base() const { return base_; }

  /// Ticks available in `trace` (the longest per-device scan count).
  std::size_t tick_count(const ScanTrace& trace) const;

  /// base() plus a ground-truth marker for every device that has a
  /// scan at `tick` (device d's tick-th scan in capture order).
  floorplan::FleetFrameSpec frame(const ScanTrace& trace,
                                  std::size_t tick) const;

  /// Pixel coordinates of a campus-feet position.
  int px_x(double ft_x) const;
  int px_y(double ft_y) const;

 private:
  const Scenario* scenario_;
  FleetFrameOptions options_;
  floorplan::FleetFrameSpec base_;
};

}  // namespace loctk::testkit

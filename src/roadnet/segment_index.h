// Spatial grid index over road segments for radius candidate queries
// (the candidate-generation step of HMM map matching).
#ifndef LIGHTTR_ROADNET_SEGMENT_INDEX_H_
#define LIGHTTR_ROADNET_SEGMENT_INDEX_H_

#include <vector>

#include "geo/geo_point.h"
#include "geo/grid.h"
#include "roadnet/road_network.h"

namespace lighttr::roadnet {

/// Buckets segments into a uniform grid; Nearby() returns segments whose
/// geometry passes within `radius_m` of a query point, in ascending
/// projection-distance order. Queries are const and thread-safe: the
/// de-duplication scratch is per thread.
class SegmentIndex {
 public:
  /// Builds the index; `cell_meters` trades memory for probe count.
  explicit SegmentIndex(const RoadNetwork& network, double cell_meters = 200.0);

  /// A candidate segment with its projection of the query point.
  struct Candidate {
    SegmentId segment = kInvalidSegment;
    Projection projection;
  };

  /// All segments within `radius_m` of `p`, nearest first (ties keep
  /// the order of the first visit over the probed cells).
  std::vector<Candidate> Nearby(const geo::GeoPoint& p, double radius_m) const;

  const RoadNetwork& network() const { return network_; }

 private:
  // A segment's bounding box in the local plane of its `from` vertex —
  // the plane ProjectOntoSegment measures in — for a trig-free lower
  // bound on the projection distance.
  struct PlaneBox {
    geo::GeoPoint origin;  // the `from` vertex
    double cos_lat = 1.0;  // LocalProjection's scale at the origin
    double x_lo = 0.0, x_hi = 0.0, y_lo = 0.0, y_hi = 0.0;
  };

  const RoadNetwork& network_;
  geo::GridSpec grid_;
  std::vector<std::vector<SegmentId>> buckets_;
  std::vector<PlaneBox> boxes_;  // per segment
};

}  // namespace lighttr::roadnet

#endif  // LIGHTTR_ROADNET_SEGMENT_INDEX_H_

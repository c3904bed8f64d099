#include "roadnet/segment_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace lighttr::roadnet {

namespace {

// Expands the network bounding box slightly so border segments and noisy
// points near the edge stay in range.
geo::GeoPoint Pad(const geo::GeoPoint& p, double dlat, double dlng) {
  return {p.lat + dlat, p.lng + dlng};
}

// Per-thread visit stamps indexed by segment id: a segment was already
// visited by the current query iff its stamp equals the query's. Shared
// by every index on the thread (stamps only grow, so one left by another
// index's query is always stale).
class VisitStamps {
 public:
  // Starts a query over segment ids [0, num_segments).
  void Begin(size_t num_segments) {
    if (stamps_.size() < num_segments) stamps_.resize(num_segments, 0);
    if (++current_ == 0) {  // wrapped: clear the stale stamps
      std::fill(stamps_.begin(), stamps_.end(), 0);
      current_ = 1;
    }
  }

  // True the first time `e` is visited by the current query.
  bool FirstVisit(SegmentId e) {
    uint32_t& stamp = stamps_[static_cast<size_t>(e)];
    if (stamp == current_) return false;
    stamp = current_;
    return true;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t current_ = 0;
};

VisitStamps& ThreadVisitStamps() {
  thread_local VisitStamps stamps;
  return stamps;
}

// Distance from v to the interval [lo, hi] (0 inside).
double IntervalGap(double v, double lo, double hi) {
  return std::max({lo - v, v - hi, 0.0});
}

}  // namespace

SegmentIndex::SegmentIndex(const RoadNetwork& network, double cell_meters)
    : network_(network),
      grid_(Pad(network.min_corner(), -0.01, -0.01),
            Pad(network.max_corner(), 0.01, 0.01), cell_meters) {
  LIGHTTR_CHECK(network.finalized());
  buckets_.assign(static_cast<size_t>(grid_.num_cells()), {});
  boxes_.reserve(static_cast<size_t>(network.num_segments()));
  for (SegmentId e = 0; e < network.num_segments(); ++e) {
    const Segment& seg = network.segment(e);
    const geo::GeoPoint& a = network.vertex(seg.from).position;
    const geo::GeoPoint& b = network.vertex(seg.to).position;
    // The same expressions as ProjectOntoSegment's plane, so the box
    // edges are bitwise its segment end coordinates (a maps to 0, 0).
    const geo::LocalProjection plane(a);
    const geo::LocalProjection::Xy pb = plane.ToXy(b);
    boxes_.push_back(PlaneBox{a, std::cos(a.lat * geo::kDegToRad),
                              std::min(0.0, pb.x), std::max(0.0, pb.x),
                              std::min(0.0, pb.y), std::max(0.0, pb.y)});
    // Rasterize along the segment at half-cell pitch, inserting into each
    // visited cell (segments are straight lines, so this covers them).
    const int steps = std::max(
        1, static_cast<int>(std::ceil(seg.length_m / (cell_meters / 2.0))));
    int64_t last_cell = -1;
    for (int s = 0; s <= steps; ++s) {
      const geo::GeoPoint p = geo::Lerp(a, b, static_cast<double>(s) / steps);
      const int64_t cell = grid_.CellId(grid_.CellOf(p));
      if (cell != last_cell) {
        buckets_[static_cast<size_t>(cell)].push_back(e);
        last_cell = cell;
      }
    }
  }
}

std::vector<SegmentIndex::Candidate> SegmentIndex::Nearby(
    const geo::GeoPoint& p, double radius_m) const {
  LIGHTTR_CHECK_GT(radius_m, 0.0);
  const geo::GridCell center = grid_.CellOf(p);
  const int32_t ring =
      static_cast<int32_t>(std::ceil(radius_m / grid_.cell_meters())) + 1;

  VisitStamps& stamps = ThreadVisitStamps();
  stamps.Begin(static_cast<size_t>(network_.num_segments()));
  // The bound test below only rejects a segment whose plane box is
  // farther than the radius by a relative margin far above rounding:
  // the projection snaps inside that box, so the exact distance would
  // reject it too, and the survivors keep their visit order.
  const double reject_beyond = radius_m * (1.0 + 1e-9);
  std::vector<Candidate> candidates;
  for (int32_t dy = -ring; dy <= ring; ++dy) {
    for (int32_t dx = -ring; dx <= ring; ++dx) {
      const int32_t x = center.x + dx;
      const int32_t y = center.y + dy;
      if (x < 0 || x >= grid_.cols() || y < 0 || y >= grid_.rows()) continue;
      for (SegmentId e : buckets_[static_cast<size_t>(
               grid_.CellId(geo::GridCell{x, y}))]) {
        if (!stamps.FirstVisit(e)) continue;
        const PlaneBox& box = boxes_[static_cast<size_t>(e)];
        const double py = (p.lat - box.origin.lat) * geo::kDegToRad *
                          geo::kEarthRadiusMeters;
        if (IntervalGap(py, box.y_lo, box.y_hi) > reject_beyond) continue;
        const double px = (p.lng - box.origin.lng) * geo::kDegToRad *
                          geo::kEarthRadiusMeters * box.cos_lat;
        if (IntervalGap(px, box.x_lo, box.x_hi) > reject_beyond) continue;
        Projection proj = network_.ProjectOntoSegment(e, p);
        if (proj.distance_m <= radius_m) {
          candidates.push_back(Candidate{e, proj});
        }
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.projection.distance_m < b.projection.distance_m;
            });
  return candidates;
}

}  // namespace lighttr::roadnet

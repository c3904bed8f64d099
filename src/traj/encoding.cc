#include "traj/encoding.h"

#include "roadnet/shortest_path.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace lighttr::traj {

namespace {

// Pads the network bounding box slightly so interpolated points near the
// border always fall inside the grid.
geo::GeoPoint Pad(const geo::GeoPoint& p, double dlat, double dlng) {
  return {p.lat + dlat, p.lng + dlng};
}

// Surrounding observed anchors of step t (prev <= t <= next).
struct AnchorSpan {
  size_t prev = 0;
  size_t next = 0;
  double alpha = 0.0;  // fractional position of t within [prev, next]
};

double AlphaOf(size_t t, size_t prev, size_t next) {
  return (next > prev)
             ? static_cast<double>(t - prev) / static_cast<double>(next - prev)
             : 0.0;
}

AnchorSpan FindAnchors(const IncompleteTrajectory& trajectory, size_t t) {
  size_t prev = t;
  while (prev > 0 && !trajectory.observed[prev]) --prev;
  size_t next = t;
  const size_t n = trajectory.observed.size();
  while (next + 1 < n && !trajectory.observed[next]) ++next;
  return AnchorSpan{prev, next, AlphaOf(t, prev, next)};
}

// A route piece: (segment, from_ratio, to_ratio), in travel order.
struct Piece {
  roadnet::SegmentId segment;
  double from_ratio;
  double to_ratio;
};

// The shortest road route between the two anchors of a gap. Every step
// of the gap interpolates along this one route, so it is searched once
// per gap, not once per step.
struct GapRoute {
  size_t prev = 0;
  size_t next = 0;
  roadnet::PointPosition a;   // the anchors' network positions
  roadnet::PointPosition b;
  geo::GeoPoint a_point;      // ... and their points
  geo::GeoPoint b_point;
  std::vector<Piece> pieces;  // empty when no directed route exists
  double total = 0.0;         // route length in meters
};

GapRoute RouteGap(const roadnet::RoadNetwork& network,
                  const IncompleteTrajectory& trajectory, size_t prev,
                  size_t next) {
  GapRoute gap;
  gap.prev = prev;
  gap.next = next;
  gap.a = trajectory.ground_truth.points[prev].position;
  gap.b = trajectory.ground_truth.points[next].position;
  gap.a_point = network.PositionToPoint(gap.a);
  gap.b_point = network.PositionToPoint(gap.b);
  if (gap.a.segment == gap.b.segment && gap.b.ratio >= gap.a.ratio) {
    gap.pieces.push_back({gap.a.segment, gap.a.ratio, gap.b.ratio});
  } else {
    const roadnet::Segment& sa = network.segment(gap.a.segment);
    const roadnet::Segment& sb = network.segment(gap.b.segment);
    auto route = roadnet::VertexRoute(network, sa.to, sb.from);
    if (!route.ok()) return gap;
    gap.pieces.push_back({gap.a.segment, gap.a.ratio, 1.0});
    for (roadnet::SegmentId e : route.value()) {
      gap.pieces.push_back({e, 0.0, 1.0});
    }
    gap.pieces.push_back({gap.b.segment, 0.0, gap.b.ratio});
  }
  for (const Piece& piece : gap.pieces) {
    gap.total += (piece.to_ratio - piece.from_ratio) *
                 network.segment(piece.segment).length_m;
  }
  return gap;
}

// Constant-speed position along the gap's route at fraction alpha, or
// nullopt when no route exists. A strict comparison maps piece
// boundaries to the *next* segment's start — matching the generator's
// representation of boundary points.
std::optional<roadnet::PointPosition> RoutePosition(
    const roadnet::RoadNetwork& network, const GapRoute& gap, double alpha) {
  if (gap.pieces.empty()) return std::nullopt;
  if (gap.total <= 0.0) return gap.a;
  double remaining = alpha * gap.total;
  for (const Piece& piece : gap.pieces) {
    const double len = (piece.to_ratio - piece.from_ratio) *
                       network.segment(piece.segment).length_m;
    if (remaining + 1e-6 < len || &piece == &gap.pieces.back()) {
      const double seg_len = network.segment(piece.segment).length_m;
      const double ratio =
          piece.from_ratio + (seg_len > 0.0 ? remaining / seg_len : 0.0);
      return roadnet::PointPosition{
          piece.segment,
          std::clamp(ratio, piece.from_ratio, piece.to_ratio)};
    }
    remaining -= len;
  }
  return gap.b;  // unreachable, but keeps the compiler satisfied
}

// What the encoder knows about one step before it looks at the map.
struct StepEstimate {
  AnchorSpan span;
  /// The route-interpolated network position (the truth when observed);
  /// nullopt on the linear fallback.
  std::optional<roadnet::PointPosition> position;
  geo::GeoPoint point;       // the anchor-interpolated estimate
  geo::GeoPoint prev_point;  // points of the surrounding anchors
  geo::GeoPoint next_point;
};

StepEstimate ObservedEstimate(const roadnet::RoadNetwork& network,
                              const IncompleteTrajectory& trajectory,
                              size_t t) {
  const roadnet::PointPosition& truth =
      trajectory.ground_truth.points[t].position;
  const geo::GeoPoint point = network.PositionToPoint(truth);
  return StepEstimate{AnchorSpan{t, t, 0.0}, truth, point, point, point};
}

// Estimate of missing step t inside `gap`; falls back to linear lat/lng
// interpolation when no directed route connects the anchors.
StepEstimate GapEstimate(const roadnet::RoadNetwork& network,
                         const GapRoute& gap, size_t t) {
  StepEstimate e;
  e.span = AnchorSpan{gap.prev, gap.next, AlphaOf(t, gap.prev, gap.next)};
  e.position = RoutePosition(network, gap, e.span.alpha);
  e.point = e.position.has_value()
                ? network.PositionToPoint(*e.position)
                : geo::Lerp(gap.a_point, gap.b_point, e.span.alpha);
  e.prev_point = gap.a_point;
  e.next_point = gap.b_point;
  return e;
}

// Estimate of any step of `gap` (observed steps are their own anchors).
StepEstimate EstimateInGap(const roadnet::RoadNetwork& network,
                           const IncompleteTrajectory& trajectory,
                           const GapRoute& gap, size_t t) {
  return trajectory.observed[t] ? ObservedEstimate(network, trajectory, t)
                                : GapEstimate(network, gap, t);
}

StepEstimate EstimateOf(const roadnet::RoadNetwork& network,
                        const IncompleteTrajectory& trajectory, size_t t) {
  if (trajectory.observed[t]) return ObservedEstimate(network, trajectory, t);
  const AnchorSpan span = FindAnchors(trajectory, t);
  return GapEstimate(network, RouteGap(network, trajectory, span.prev, span.next),
                     t);
}

// Every step's estimate in one sweep, each gap routed once: the missing
// steps of a gap are consecutive, so they reuse the last route.
std::vector<StepEstimate> EstimateAll(const roadnet::RoadNetwork& network,
                                      const IncompleteTrajectory& trajectory) {
  const size_t n = trajectory.size();
  LIGHTTR_CHECK_GE(n, 2u);
  LIGHTTR_CHECK_EQ(trajectory.observed.size(), n);
  std::vector<StepEstimate> estimates;
  estimates.reserve(n);
  std::optional<GapRoute> gap;
  for (size_t t = 0; t < n; ++t) {
    if (trajectory.observed[t]) {
      estimates.push_back(ObservedEstimate(network, trajectory, t));
      continue;
    }
    const AnchorSpan span = FindAnchors(trajectory, t);
    if (!gap.has_value() || gap->prev != span.prev || gap->next != span.next) {
      gap = RouteGap(network, trajectory, span.prev, span.next);
    }
    estimates.push_back(GapEstimate(network, *gap, t));
  }
  return estimates;
}

// The neighbouring steps whose estimates give step t's travel heading.
size_t HeadingFrom(const AnchorSpan& span, size_t t) {
  return t > span.prev ? t - 1 : span.prev;
}
size_t HeadingTo(const AnchorSpan& span, size_t t) {
  return t < span.next ? t + 1 : span.next;
}

int RouteSegment(const StepEstimate& e) {
  return e.position.has_value() ? e.position->segment : -1;
}

double AnchorDistance(const StepEstimate& e) {
  return geo::EquirectangularMeters(e.prev_point, e.next_point);
}

// Row t of the [T, kFeatureDim] input matrix (see EncodeInputs).
void FillInputRow(const geo::GridSpec& grid,
                  const IncompleteTrajectory& trajectory, size_t t,
                  const StepEstimate& e, nn::Matrix* inputs) {
  const size_t n = trajectory.size();
  const auto cols = static_cast<double>(grid.cols());
  const auto rows = static_cast<double>(grid.rows());
  const bool observed = trajectory.observed[t];
  const geo::GridCell cell = grid.CellOf(e.point);
  const geo::GridCell prev_cell = grid.CellOf(e.prev_point);
  const geo::GridCell next_cell = grid.CellOf(e.next_point);
  nn::Matrix& m = *inputs;
  m(t, 0) = observed ? 1.0 : 0.0;
  m(t, 1) = (cell.x + 0.5) / cols;
  m(t, 2) = (cell.y + 0.5) / rows;
  m(t, 3) = observed ? trajectory.ground_truth.points[t].position.ratio : 0.0;
  m(t, 4) = e.span.alpha;
  m(t, 5) = static_cast<double>(e.span.next - e.span.prev) /
            static_cast<double>(n);
  m(t, 6) = static_cast<double>(t) / static_cast<double>(n);
  m(t, 7) = (prev_cell.x + 0.5) / cols;
  m(t, 8) = (prev_cell.y + 0.5) / rows;
  m(t, 9) = (next_cell.x + 0.5) / cols;
  m(t, 10) = (next_cell.y + 0.5) / rows;
}

}  // namespace

TrajectoryEncoder::TrajectoryEncoder(const roadnet::RoadNetwork& network,
                                     const roadnet::SegmentIndex& index,
                                     EncoderOptions options)
    : network_(network),
      index_(index),
      options_(options),
      grid_(Pad(network.min_corner(), -0.01, -0.01),
            Pad(network.max_corner(), 0.01, 0.01), options.grid_cell_m) {
  LIGHTTR_CHECK_GT(options_.candidate_radius_m, 0.0);
  LIGHTTR_CHECK_GE(options_.max_candidates, 1);
  LIGHTTR_CHECK_GT(options_.gamma, 0.0);
}

std::optional<roadnet::PointPosition>
TrajectoryEncoder::RouteInterpolatedPosition(
    const IncompleteTrajectory& trajectory, size_t t) const {
  LIGHTTR_CHECK_LT(t, trajectory.size());
  return EstimateOf(network_, trajectory, t).position;
}

geo::GeoPoint TrajectoryEncoder::InterpolatedPoint(
    const IncompleteTrajectory& trajectory, size_t t) const {
  LIGHTTR_CHECK_LT(t, trajectory.size());
  return EstimateOf(network_, trajectory, t).point;
}

nn::Matrix TrajectoryEncoder::EncodeInputs(
    const IncompleteTrajectory& trajectory) const {
  const std::vector<StepEstimate> estimates = EstimateAll(network_, trajectory);
  nn::Matrix inputs(estimates.size(), kFeatureDim);
  for (size_t t = 0; t < estimates.size(); ++t) {
    FillInputRow(grid_, trajectory, t, estimates[t], &inputs);
  }
  return inputs;
}

std::vector<StepTarget> TrajectoryEncoder::EncodeTargets(
    const IncompleteTrajectory& trajectory) const {
  std::vector<StepTarget> targets(trajectory.size());
  for (size_t t = 0; t < trajectory.size(); ++t) {
    const MatchedPoint& mp = trajectory.ground_truth.points[t];
    targets[t].segment = mp.position.segment;
    targets[t].ratio = mp.position.ratio;
    targets[t].missing = !trajectory.observed[t];
  }
  return targets;
}

EncodedTrajectory TrajectoryEncoder::Encode(
    const IncompleteTrajectory& trajectory) const {
  const std::vector<StepEstimate> estimates = EstimateAll(network_, trajectory);
  const size_t n = estimates.size();
  EncodedTrajectory out;
  out.inputs = nn::Matrix(n, kFeatureDim);
  out.targets = EncodeTargets(trajectory);
  out.candidates.resize(n);
  for (size_t t = 0; t < n; ++t) {
    const StepEstimate& e = estimates[t];
    FillInputRow(grid_, trajectory, t, e, &out.inputs);
    if (trajectory.observed[t]) continue;
    out.candidates[t] = CandidatesAround(
        e.point, RouteSegment(e), AnchorDistance(e),
        estimates[HeadingFrom(e.span, t)].point,
        estimates[HeadingTo(e.span, t)].point,
        trajectory.ground_truth.points[t].position.segment);
  }
  return out;
}

StepCandidates TrajectoryEncoder::CandidatesForStep(
    const IncompleteTrajectory& trajectory, size_t t) const {
  LIGHTTR_CHECK_LT(t, trajectory.size());
  const AnchorSpan span = FindAnchors(trajectory, t);
  const GapRoute gap = RouteGap(network_, trajectory, span.prev, span.next);
  const StepEstimate e = EstimateInGap(network_, trajectory, gap, t);
  return CandidatesAround(
      e.point, RouteSegment(e), AnchorDistance(e),
      EstimateInGap(network_, trajectory, gap, HeadingFrom(span, t)).point,
      EstimateInGap(network_, trajectory, gap, HeadingTo(span, t)).point,
      trajectory.ground_truth.points[t].position.segment);
}

StepCandidates TrajectoryEncoder::CandidatesAround(
    const geo::GeoPoint& estimate, int route_segment, double gap_m,
    const geo::GeoPoint& heading_from, const geo::GeoPoint& heading_to,
    int true_segment) const {
  // Scale the search radius and mask length with the distance between
  // the surrounding anchors: a mid-gap point can stray far from the
  // straight-line estimate (road detours), so a fixed radius would
  // exclude the truth and poison the CE loss with -inf-like masks.
  const double radius =
      std::max(options_.candidate_radius_m, options_.radius_gap_factor * gap_m);
  const double sigma =
      std::max(options_.gamma, options_.gamma_gap_factor * gap_m);

  auto nearby = index_.Nearby(estimate, radius);
  // An empty search (an estimate far from every road) widens until it
  // finds the nearest segments: the candidate list is never empty, and
  // it never consults the ground truth of the step being recovered.
  for (double widened = 2.0 * radius; nearby.empty(); widened *= 2.0) {
    LIGHTTR_CHECK_GT(network_.num_segments(), 0);
    nearby = index_.Nearby(estimate, widened);
  }
  if (static_cast<int>(nearby.size()) > options_.max_candidates) {
    nearby.resize(static_cast<size_t>(options_.max_candidates));
  }

  // Local travel heading, estimated from the interpolated positions of
  // the neighbouring steps. Breaks the tie between a street's two
  // directed twin segments.
  const geo::LocalProjection plane(estimate);
  const auto h0 = plane.ToXy(heading_from);
  const auto h1 = plane.ToXy(heading_to);
  const double hx = h1.x - h0.x;
  const double hy = h1.y - h0.y;
  const double heading_norm = std::sqrt(hx * hx + hy * hy);

  StepCandidates out;
  // Eq. 10: c_i = exp(-dist^2 / gamma); log c_i below. gamma is read as
  // a length scale (meters) that widens with the anchor gap; a direction
  // penalty disambiguates the two directed twins of a street.
  const auto log_mask_of = [&](roadnet::SegmentId segment, double d) {
    double mask = -d * d / (2.0 * sigma * sigma);
    if (segment == route_segment) mask += options_.route_prior_bonus;
    if (heading_norm > 1.0 && options_.direction_weight > 0.0) {
      const roadnet::Segment& seg = network_.segment(segment);
      const auto a = plane.ToXy(network_.vertex(seg.from).position);
      const auto b = plane.ToXy(network_.vertex(seg.to).position);
      const double sx = b.x - a.x;
      const double sy = b.y - a.y;
      const double seg_norm = std::sqrt(sx * sx + sy * sy);
      if (seg_norm > 0.0) {
        const double cosine =
            (hx * sx + hy * sy) / (heading_norm * seg_norm);
        mask += options_.direction_weight * (cosine - 1.0);
      }
    }
    return static_cast<nn::Scalar>(mask);
  };
  for (const auto& candidate : nearby) {
    if (candidate.segment == true_segment) {
      out.target_index = static_cast<int>(out.segments.size());
      out.target_in_range = true;
    }
    out.segments.push_back(candidate.segment);
    out.log_mask.push_back(
        log_mask_of(candidate.segment, candidate.projection.distance_m));
  }
  return out;
}

}  // namespace lighttr::traj

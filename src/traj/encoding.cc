#include "traj/encoding.h"

#include "roadnet/shortest_path.h"

#include <algorithm>
#include <optional>
#include <cmath>

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

AnchorSpan FindAnchors(const IncompleteTrajectory& trajectory, size_t t) {
  AnchorSpan span;
  size_t prev = t;
  while (prev > 0 && !trajectory.observed[prev]) --prev;
  size_t next = t;
  const size_t n = trajectory.observed.size();
  while (next + 1 < n && !trajectory.observed[next]) ++next;
  span.prev = prev;
  span.next = next;
  span.alpha = (next > prev)
                   ? static_cast<double>(t - prev) / static_cast<double>(next - prev)
                   : 0.0;
  return span;
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
  if (trajectory.observed[t]) {
    return trajectory.ground_truth.points[t].position;
  }
  const AnchorSpan span = FindAnchors(trajectory, t);
  const roadnet::PointPosition a =
      trajectory.ground_truth.points[span.prev].position;
  const roadnet::PointPosition b =
      trajectory.ground_truth.points[span.next].position;

  // Route pieces: (segment, from_ratio, to_ratio), in travel order.
  struct Piece {
    roadnet::SegmentId segment;
    double from_ratio;
    double to_ratio;
  };
  std::vector<Piece> pieces;
  if (a.segment == b.segment && b.ratio >= a.ratio) {
    pieces.push_back({a.segment, a.ratio, b.ratio});
  } else {
    const roadnet::Segment& sa = network_.segment(a.segment);
    const roadnet::Segment& sb = network_.segment(b.segment);
    auto route = roadnet::VertexRoute(network_, sa.to, sb.from);
    if (!route.ok()) return std::nullopt;
    pieces.push_back({a.segment, a.ratio, 1.0});
    for (roadnet::SegmentId e : route.value()) pieces.push_back({e, 0.0, 1.0});
    pieces.push_back({b.segment, 0.0, b.ratio});
  }

  double total = 0.0;
  for (const Piece& piece : pieces) {
    total += (piece.to_ratio - piece.from_ratio) *
             network_.segment(piece.segment).length_m;
  }
  if (total <= 0.0) return a;

  // Constant-speed position along the route at fraction alpha. A strict
  // comparison maps piece boundaries to the *next* segment's start —
  // matching the generator's representation of boundary points.
  double remaining = span.alpha * total;
  for (const Piece& piece : pieces) {
    const double len = (piece.to_ratio - piece.from_ratio) *
                       network_.segment(piece.segment).length_m;
    if (remaining + 1e-6 < len || &piece == &pieces.back()) {
      const double seg_len = network_.segment(piece.segment).length_m;
      const double ratio =
          piece.from_ratio + (seg_len > 0.0 ? remaining / seg_len : 0.0);
      return roadnet::PointPosition{
          piece.segment,
          std::clamp(ratio, piece.from_ratio, piece.to_ratio)};
    }
    remaining -= len;
  }
  return b;  // unreachable, but keeps the compiler satisfied
}

geo::GeoPoint TrajectoryEncoder::InterpolatedPoint(
    const IncompleteTrajectory& trajectory, size_t t) const {
  LIGHTTR_CHECK_LT(t, trajectory.size());
  if (trajectory.observed[t]) {
    return network_.PositionToPoint(trajectory.ground_truth.points[t].position);
  }
  if (auto position = RouteInterpolatedPosition(trajectory, t)) {
    return network_.PositionToPoint(*position);
  }
  // Linear fallback when no directed route connects the anchors.
  const AnchorSpan span = FindAnchors(trajectory, t);
  const geo::GeoPoint a = network_.PositionToPoint(
      trajectory.ground_truth.points[span.prev].position);
  const geo::GeoPoint b = network_.PositionToPoint(
      trajectory.ground_truth.points[span.next].position);
  return geo::Lerp(a, b, span.alpha);
}

nn::Matrix TrajectoryEncoder::EncodeInputs(
    const IncompleteTrajectory& trajectory) const {
  const size_t n = trajectory.size();
  LIGHTTR_CHECK_GE(n, 2u);
  LIGHTTR_CHECK_EQ(trajectory.observed.size(), n);
  nn::Matrix inputs(n, kFeatureDim);
  const auto cols = static_cast<double>(grid_.cols());
  const auto rows = static_cast<double>(grid_.rows());
  for (size_t t = 0; t < n; ++t) {
    const bool observed = trajectory.observed[t];
    const geo::GeoPoint p = InterpolatedPoint(trajectory, t);
    const geo::GridCell cell = grid_.CellOf(p);
    const AnchorSpan span = FindAnchors(trajectory, t);
    const geo::GridCell prev_cell =
        grid_.CellOf(network_.PositionToPoint(
            trajectory.ground_truth.points[span.prev].position));
    const geo::GridCell next_cell =
        grid_.CellOf(network_.PositionToPoint(
            trajectory.ground_truth.points[span.next].position));
    inputs(t, 0) = observed ? 1.0 : 0.0;
    inputs(t, 1) = (cell.x + 0.5) / cols;
    inputs(t, 2) = (cell.y + 0.5) / rows;
    inputs(t, 3) =
        observed ? trajectory.ground_truth.points[t].position.ratio : 0.0;
    inputs(t, 4) = span.alpha;
    inputs(t, 5) = static_cast<double>(span.next - span.prev) /
                   static_cast<double>(n);
    inputs(t, 6) = static_cast<double>(t) / static_cast<double>(n);
    inputs(t, 7) = (prev_cell.x + 0.5) / cols;
    inputs(t, 8) = (prev_cell.y + 0.5) / rows;
    inputs(t, 9) = (next_cell.x + 0.5) / cols;
    inputs(t, 10) = (next_cell.y + 0.5) / rows;
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

StepCandidates TrajectoryEncoder::CandidatesForStep(
    const IncompleteTrajectory& trajectory, size_t t) const {
  const std::optional<roadnet::PointPosition> route_position =
      RouteInterpolatedPosition(trajectory, t);
  const geo::GeoPoint estimate =
      route_position.has_value()
          ? network_.PositionToPoint(*route_position)
          : InterpolatedPoint(trajectory, t);
  const int route_segment =
      route_position.has_value() ? route_position->segment : -1;

  // Scale the search radius and mask length with the distance between
  // the surrounding anchors: a mid-gap point can stray far from the
  // straight-line estimate (road detours), so a fixed radius would
  // exclude the truth and poison the CE loss with -inf-like masks.
  const AnchorSpan span = FindAnchors(trajectory, t);
  const double gap_m = geo::EquirectangularMeters(
      network_.PositionToPoint(
          trajectory.ground_truth.points[span.prev].position),
      network_.PositionToPoint(
          trajectory.ground_truth.points[span.next].position));
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
  const size_t before = t > span.prev ? t - 1 : span.prev;
  const size_t after = t < span.next ? t + 1 : span.next;
  const geo::LocalProjection plane(estimate);
  const auto h0 = plane.ToXy(InterpolatedPoint(trajectory, before));
  const auto h1 = plane.ToXy(InterpolatedPoint(trajectory, after));
  const double hx = h1.x - h0.x;
  const double hy = h1.y - h0.y;
  const double heading_norm = std::sqrt(hx * hx + hy * hy);

  StepCandidates out;
  const int true_segment = trajectory.ground_truth.points[t].position.segment;
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

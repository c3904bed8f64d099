// Featurization of incomplete trajectories for neural recovery models,
// including the candidate generation and distance weights used by the
// constraint mask layer (paper Eq. 10/11).
//
// All recovery models (LightTR and baselines) consume the same encoding,
// so accuracy comparisons reflect the models, not the features.
#ifndef LIGHTTR_TRAJ_ENCODING_H_
#define LIGHTTR_TRAJ_ENCODING_H_

#include <optional>
#include <vector>

#include "geo/grid.h"
#include "nn/matrix.h"
#include "roadnet/segment_index.h"
#include "traj/trajectory.h"

namespace lighttr::traj {

/// Per-step recovery targets derived from the ground truth.
struct StepTarget {
  int segment = 0;      // true road segment id
  double ratio = 0.0;   // true moving ratio
  bool missing = false; // whether this step must be recovered
};

/// Candidate road segments for one step, with constraint-mask weights.
struct StepCandidates {
  std::vector<int> segments;       // candidate segment ids
  std::vector<nn::Scalar> log_mask;  // log c_i of Eq. 10 per candidate
  int target_index = -1;           // position of the true segment, or -1
  /// True when the true segment was found by the spatial search (then
  /// target_index >= 0). When false, the candidate set cannot express
  /// it ("omega = 0" in the paper), making the step unlearnable — models
  /// skip its CE term rather than memorise an exception.
  bool target_in_range = false;
};

/// One trajectory's complete encoding: what EncodeInputs, EncodeTargets
/// and CandidatesForStep return, computed in one pass.
struct EncodedTrajectory {
  nn::Matrix inputs;                   // [T, kFeatureDim], as EncodeInputs
  std::vector<StepTarget> targets;     // as EncodeTargets
  /// Per step; as CandidatesForStep at missing steps, empty at observed
  /// steps (no model decodes an observed step).
  std::vector<StepCandidates> candidates;
};

/// Options for TrajectoryEncoder.
struct EncoderOptions {
  double grid_cell_m = 200.0;       // Eq. 4 discretisation cell size
  double candidate_radius_m = 300.0;  // base constraint-mask search radius
  /// The search radius and mask scale grow with the distance between the
  /// surrounding anchors: mid-gap points can be far from the linear
  /// interpolation estimate, so a fixed radius would exclude the truth.
  double radius_gap_factor = 0.45;
  int max_candidates = 32;
  double gamma = 125.0;             // Eq. 10 length scale in meters
  double gamma_gap_factor = 0.3;    // mask scale growth with anchor gap
  /// Directed road networks carry both directions of a street as twin
  /// segments at identical geometric distance; the mask additionally
  /// penalises candidates whose direction opposes the local travel
  /// heading: log-mask += weight * (cos(angle) - 1).
  double direction_weight = 2.0;
  /// Log-mask bonus for the candidate the shortest-route interpolation
  /// lands on. Near intersections several segments are equidistant from
  /// the estimate; the route itself disambiguates them (trajectories are
  /// road-constrained). 0 disables.
  double route_prior_bonus = 2.5;
};

/// Encodes incomplete trajectories into model inputs and targets.
class TrajectoryEncoder {
 public:
  TrajectoryEncoder(const roadnet::RoadNetwork& network,
                    const roadnet::SegmentIndex& index,
                    EncoderOptions options = {});

  /// Number of features per step (fixed by the encoding).
  static constexpr size_t kFeatureDim = 11;

  /// Encodes a whole trajectory in one pass, bitwise equal to the
  /// per-step functions below: each anchor gap is routed once and every
  /// missing step's estimate, heading and candidates come from that one
  /// route. Models call this once per forward pass.
  EncodedTrajectory Encode(const IncompleteTrajectory& trajectory) const;

  /// Encodes a [T, kFeatureDim] input matrix. Features per step:
  ///   0: observed flag
  ///   1: normalized grid x of the (anchor-interpolated) position (Eq. 4)
  ///   2: normalized grid y
  ///   3: observed moving ratio (0 when missing)
  ///   4: alpha — fractional position between surrounding anchors
  ///   5: normalized gap length between the surrounding anchors
  ///   6: normalized time bin t / T
  ///   7: normalized grid x of the previous observed anchor
  ///   8: normalized grid y of the previous observed anchor
  ///   9: normalized grid x of the next observed anchor
  ///  10: normalized grid y of the next observed anchor
  /// Missing steps carry the linear interpolation between the previous
  /// and next observed anchors, which every model receives equally.
  nn::Matrix EncodeInputs(const IncompleteTrajectory& trajectory) const;

  /// Ground-truth targets per step.
  std::vector<StepTarget> EncodeTargets(
      const IncompleteTrajectory& trajectory) const;

  /// Candidates + constraint-mask weights for step `t`, built around the
  /// anchor-interpolated position. The list depends only on the
  /// observed anchors, never on the step's ground truth, and is never
  /// empty (an empty search widens until it finds the nearest roads).
  /// `target_index` is the true segment's position in it, or -1 when
  /// the search missed it.
  StepCandidates CandidatesForStep(const IncompleteTrajectory& trajectory,
                                   size_t t) const;

  /// The anchor-interpolated estimate for step `t` (public for the
  /// case-study visualisation): the position a constant-speed vehicle
  /// would reach at step t while following the shortest road route
  /// between the surrounding observed anchors. Falls back to linear
  /// lat/lng interpolation when no directed route exists. Trajectories
  /// are map-constrained, so the route-based estimate is far stronger
  /// than the straight line.
  geo::GeoPoint InterpolatedPoint(const IncompleteTrajectory& trajectory,
                                  size_t t) const;

  /// Like InterpolatedPoint but returns the network position (segment +
  /// moving ratio) when a route exists; nullopt when only the linear
  /// fallback is available.
  std::optional<roadnet::PointPosition> RouteInterpolatedPosition(
      const IncompleteTrajectory& trajectory, size_t t) const;

  const roadnet::RoadNetwork& network() const { return network_; }
  const EncoderOptions& options() const { return options_; }
  size_t num_segments() const {
    return static_cast<size_t>(network_.num_segments());
  }

 private:
  // Candidates + mask weights around `estimate`, the estimate of a step
  // whose anchors lie `gap_m` apart; the route interpolation lands on
  // `route_segment` (-1 when unrouted) and the travel heading runs from
  // `heading_from` to `heading_to`.
  StepCandidates CandidatesAround(const geo::GeoPoint& estimate,
                                  int route_segment, double gap_m,
                                  const geo::GeoPoint& heading_from,
                                  const geo::GeoPoint& heading_to,
                                  int true_segment) const;

  const roadnet::RoadNetwork& network_;
  const roadnet::SegmentIndex& index_;
  EncoderOptions options_;
  geo::GridSpec grid_;
};

}  // namespace lighttr::traj

#endif  // LIGHTTR_TRAJ_ENCODING_H_

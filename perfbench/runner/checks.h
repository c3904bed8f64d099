// Correctness checks computed apart from the library's own metric code:
// an independent Eq. 19 recall count, a straight-line error floor for
// the Eq. 20 MAE, and the hidden-truth test of Recover.
#ifndef LIGHTTR_PERFBENCH_CHECKS_H_
#define LIGHTTR_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fl/recovery_model.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace perfbench {

class Report;

/// Recover outputs over a held-out set plus the benchmark's own
/// quality figures for them.
struct Recovery {
  std::vector<std::vector<lighttr::roadnet::PointPosition>> outputs;
  double seconds = 0.0;           // wall time of the Recover calls alone
  std::vector<double> trajectory_seconds;  // the same, per trajectory
  int64_t missing_points = 0;     // steps that had to be recovered
  int64_t matched_segments = 0;   // Eq. 19 multiset intersection
  double straight_error_m = 0.0;  // mean great-circle error per point
};

/// Recovers every trajectory of `held_out` once, timing only the
/// Recover calls, and scores the outputs with the benchmark's own
/// multiset count and straight-line distances.
Recovery RecoverAll(lighttr::fl::RecoveryModel* model,
                    const lighttr::roadnet::RoadNetwork& network,
                    const std::vector<lighttr::traj::IncompleteTrajectory>&
                        held_out);

/// Recall of `recovery` (matched / missing).
double RecallOf(const Recovery& recovery);

/// Library-reported quality of the same held-out set.
struct LibraryQuality {
  double recall = 0.0;
  double mae_m = 0.0;
};

/// Checks the library's figures against the benchmark's own: equal
/// recall, and an MAE at least the straight-line error. Failures go to
/// `report`.
void CheckQuality(const std::string& label, const Recovery& recovery,
                  const LibraryQuality& library, Report* report);

/// `trajectory` with the ground truth of every missing step replaced by
/// the position of the observed point before it (a model that reads no
/// hidden truth recovers both copies identically).
lighttr::traj::IncompleteTrajectory HideTruth(
    const lighttr::traj::IncompleteTrajectory& trajectory);

/// Indices of the trajectories whose Recover output changes when their
/// hidden truth is replaced (`original` holds the outputs on the
/// unmodified trajectories, in order).
std::vector<int> HiddenTruthChanges(
    lighttr::fl::RecoveryModel* model,
    const std::vector<lighttr::traj::IncompleteTrajectory>& held_out,
    const std::vector<std::vector<lighttr::roadnet::PointPosition>>&
        original);

/// Comma-separated list of `ids` ("-" when empty).
std::string JoinIds(const std::vector<int>& ids);

}  // namespace perfbench

#endif  // LIGHTTR_PERFBENCH_CHECKS_H_

#include "checks.h"

#include <cstdio>
#include <map>

#include "geo/geo_point.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

Recovery RecoverAll(
    lighttr::fl::RecoveryModel* model,
    const lighttr::roadnet::RoadNetwork& network,
    const std::vector<lighttr::traj::IncompleteTrajectory>& held_out) {
  Recovery out;
  out.outputs.reserve(held_out.size());
  out.trajectory_seconds.reserve(held_out.size());
  for (const auto& trajectory : held_out) {
    const double start = NowSeconds();
    out.outputs.push_back(model->Recover(trajectory));
    out.trajectory_seconds.push_back(NowSeconds() - start);
    out.seconds += out.trajectory_seconds.back();
  }
  double error_sum_m = 0.0;
  for (size_t i = 0; i < held_out.size(); ++i) {
    const auto& trajectory = held_out[i];
    const auto& recovered = out.outputs[i];
    // Eq. 19 as a multiset count: each true segment occurrence can be
    // matched by one recovered occurrence of the same segment.
    std::map<int, int64_t> truth_left;
    for (size_t t = 0; t < trajectory.size(); ++t) {
      if (!trajectory.observed[t]) {
        ++truth_left[trajectory.ground_truth.points[t].position.segment];
      }
    }
    for (size_t t = 0; t < trajectory.size(); ++t) {
      if (trajectory.observed[t]) continue;
      const auto& truth = trajectory.ground_truth.points[t].position;
      ++out.missing_points;
      auto it = truth_left.find(recovered[t].segment);
      if (it != truth_left.end() && it->second > 0) {
        --it->second;
        ++out.matched_segments;
      }
      error_sum_m +=
          lighttr::geo::HaversineMeters(network.PositionToPoint(recovered[t]),
                                        network.PositionToPoint(truth));
    }
  }
  if (out.missing_points > 0) {
    out.straight_error_m =
        error_sum_m / static_cast<double>(out.missing_points);
  }
  return out;
}

double RecallOf(const Recovery& recovery) {
  if (recovery.missing_points == 0) return 0.0;
  return static_cast<double>(recovery.matched_segments) /
         static_cast<double>(recovery.missing_points);
}

void CheckQuality(const std::string& label, const Recovery& recovery,
                  const LibraryQuality& library, Report* report) {
  const double own_recall = RecallOf(recovery);
  if (recovery.missing_points == 0) {
    report->Fail(label + ": held-out set has no missing points");
    return;
  }
  if (own_recall != library.recall) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%s: own recall %.17g != EvaluateRecovery %.17g",
                  label.c_str(), own_recall, library.recall);
    report->Fail(buffer);
  }
  // A road route is never shorter than the straight line between its
  // ends; the slack covers rounding of the two distance formulas.
  if (library.mae_m < recovery.straight_error_m * (1.0 - 1e-9)) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%s: MAE %.6f m below straight-line error %.6f m",
                  label.c_str(), library.mae_m, recovery.straight_error_m);
    report->Fail(buffer);
  }
}

lighttr::traj::IncompleteTrajectory HideTruth(
    const lighttr::traj::IncompleteTrajectory& trajectory) {
  lighttr::traj::IncompleteTrajectory copy = trajectory;
  lighttr::roadnet::PointPosition last_seen =
      trajectory.ground_truth.points.front().position;
  for (size_t t = 0; t < copy.size(); ++t) {
    if (copy.observed[t]) {
      last_seen = copy.ground_truth.points[t].position;
    } else {
      copy.ground_truth.points[t].position = last_seen;
    }
  }
  return copy;
}

std::vector<int> HiddenTruthChanges(
    lighttr::fl::RecoveryModel* model,
    const std::vector<lighttr::traj::IncompleteTrajectory>& held_out,
    const std::vector<std::vector<lighttr::roadnet::PointPosition>>&
        original) {
  std::vector<int> changed;
  for (size_t i = 0; i < held_out.size(); ++i) {
    const auto hidden = model->Recover(HideTruth(held_out[i]));
    // Observed steps are returned verbatim and were not modified, so
    // any difference comes from a missing step.
    if (hidden != original[i]) {
      changed.push_back(static_cast<int>(i));
    }
  }
  return changed;
}

std::string JoinIds(const std::vector<int>& ids) {
  if (ids.empty()) return "-";
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace perfbench

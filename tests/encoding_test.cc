// Tests for the trajectory encoder: features, targets, candidates, the
// constraint mask (Eq. 10/11), and route-based interpolation.
#include <gtest/gtest.h>

#include <algorithm>

#include "roadnet/generators.h"
#include "roadnet/segment_index.h"
#include "traj/downsample.h"
#include "traj/encoding.h"
#include "traj/generator.h"
#include "traj/workload.h"

namespace lighttr::traj {
namespace {

class EncodingTest : public ::testing::Test {
 protected:
  EncodingTest() {
    Rng rng(31);
    roadnet::CityGridOptions options;
    options.rows = 7;
    options.cols = 7;
    network_ = roadnet::GenerateCityGrid(options, &rng);
    index_ = std::make_unique<roadnet::SegmentIndex>(network_);
    encoder_ = std::make_unique<TrajectoryEncoder>(network_, *index_);
  }

  IncompleteTrajectory MakeSample(double keep_ratio = 0.25,
                                  uint64_t seed = 32) {
    Rng rng(seed);
    const TrajectoryGenerator generator(network_);
    auto result = generator.Generate({}, roadnet::kInvalidVertex, &rng);
    EXPECT_TRUE(result.ok());
    return MakeIncomplete(std::move(result).value(), keep_ratio, &rng);
  }

  roadnet::RoadNetwork network_;
  std::unique_ptr<roadnet::SegmentIndex> index_;
  std::unique_ptr<TrajectoryEncoder> encoder_;
};

TEST_F(EncodingTest, InputShapeAndRanges) {
  const IncompleteTrajectory icp = MakeSample();
  const nn::Matrix inputs = encoder_->EncodeInputs(icp);
  EXPECT_EQ(inputs.rows(), icp.size());
  EXPECT_EQ(inputs.cols(), TrajectoryEncoder::kFeatureDim);
  for (size_t r = 0; r < inputs.rows(); ++r) {
    for (size_t c = 0; c < inputs.cols(); ++c) {
      EXPECT_GE(inputs(r, c), 0.0) << r << "," << c;
      EXPECT_LE(inputs(r, c), 1.0) << r << "," << c;
    }
    EXPECT_EQ(inputs(r, 0), icp.observed[r] ? 1.0 : 0.0);
  }
}

TEST_F(EncodingTest, TargetsMatchGroundTruth) {
  const IncompleteTrajectory icp = MakeSample();
  const auto targets = encoder_->EncodeTargets(icp);
  ASSERT_EQ(targets.size(), icp.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(targets[t].segment,
              icp.ground_truth.points[t].position.segment);
    EXPECT_DOUBLE_EQ(targets[t].ratio,
                     icp.ground_truth.points[t].position.ratio);
    EXPECT_EQ(targets[t].missing, !icp.observed[t]);
  }
}

TEST_F(EncodingTest, TargetIndexIsMinusOneExactlyWhenTruthIsAbsent) {
  int absent = 0;
  for (uint64_t seed = 33; seed < 41; ++seed) {
    const IncompleteTrajectory icp = MakeSample(0.0625, seed);
    for (size_t t = 0; t < icp.size(); ++t) {
      const StepCandidates candidates = encoder_->CandidatesForStep(icp, t);
      ASSERT_FALSE(candidates.segments.empty());
      EXPECT_EQ(candidates.segments.size(), candidates.log_mask.size());
      const int truth = icp.ground_truth.points[t].position.segment;
      const auto found = std::find(candidates.segments.begin(),
                                   candidates.segments.end(), truth);
      if (found == candidates.segments.end()) {
        ++absent;
        EXPECT_EQ(candidates.target_index, -1);
        EXPECT_FALSE(candidates.target_in_range);
      } else {
        EXPECT_EQ(candidates.target_index,
                  static_cast<int>(found - candidates.segments.begin()));
        EXPECT_TRUE(candidates.target_in_range);
      }
    }
  }
  // Sparse keep ratios make the search miss some truths, so both
  // branches above are exercised.
  EXPECT_GT(absent, 0);
}

TEST_F(EncodingTest, CandidatesIgnoreTheTruthOfMissingSteps) {
  for (uint64_t seed = 33; seed < 37; ++seed) {
    const IncompleteTrajectory icp = MakeSample(0.125, seed);
    IncompleteTrajectory decoy = icp;
    for (size_t t = 0; t < decoy.size(); ++t) {
      if (decoy.observed[t]) continue;
      roadnet::PointPosition& position = decoy.ground_truth.points[t].position;
      position.segment = (position.segment + 7) % network_.num_segments();
      position.ratio = 1.0 - position.ratio;
    }
    for (size_t t = 0; t < icp.size(); ++t) {
      const StepCandidates a = encoder_->CandidatesForStep(icp, t);
      const StepCandidates b = encoder_->CandidatesForStep(decoy, t);
      EXPECT_EQ(a.segments, b.segments) << "seed " << seed << " step " << t;
      EXPECT_EQ(a.log_mask, b.log_mask) << "seed " << seed << " step " << t;
    }
  }
}

TEST_F(EncodingTest, MaskIsLogWeightNonPositiveNearZeroForTruthAtObserved) {
  const IncompleteTrajectory icp = MakeSample(0.25, 34);
  const double bonus = encoder_->options().route_prior_bonus;
  for (size_t t = 0; t < icp.size(); ++t) {
    const StepCandidates candidates = encoder_->CandidatesForStep(icp, t);
    // Only the route-prior candidate may carry a positive (bonus) mask.
    int positive = 0;
    for (nn::Scalar mask : candidates.log_mask) {
      EXPECT_LE(mask, bonus + 1e-12);
      positive += mask > 1e-12 ? 1 : 0;
    }
    EXPECT_LE(positive, 1);
    if (icp.observed[t]) {
      // At observed points the estimate sits on the true segment, whose
      // distance term vanishes (direction term may not for twins).
      EXPECT_GE(candidates.log_mask[candidates.target_index], -4.5);
    }
  }
}

TEST_F(EncodingTest, InterpolatedPointIsExactAtObservedSteps) {
  const IncompleteTrajectory icp = MakeSample(0.25, 35);
  for (size_t t = 0; t < icp.size(); ++t) {
    if (!icp.observed[t]) continue;
    const geo::GeoPoint expected =
        network_.PositionToPoint(icp.ground_truth.points[t].position);
    EXPECT_NEAR(geo::HaversineMeters(encoder_->InterpolatedPoint(icp, t),
                                     expected),
                0.0, 0.01);
  }
}

TEST_F(EncodingTest, RouteInterpolationRecoversConstantSpeedChainExactly) {
  // A straight chain with a constant-speed trajectory: the route-based
  // interpolation must land on the true segment with the true ratio.
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(20, 100.0);
  const roadnet::SegmentIndex index(chain);
  const TrajectoryEncoder encoder(chain, index);

  MatchedTrajectory t;
  t.epsilon_s = 10.0;
  // 50 m per step eastward along the chain (segment k covers [100k, 100k+100]).
  for (int i = 0; i < 16; ++i) {
    const double meters = 50.0 * i;
    const int vertex = static_cast<int>(meters / 100.0);
    const double ratio = (meters - vertex * 100.0) / 100.0;
    const roadnet::SegmentId seg = chain.FindSegment(vertex, vertex + 1);
    ASSERT_NE(seg, roadnet::kInvalidSegment);
    t.points.push_back(MatchedPoint{{seg, ratio}, i * 10.0, i});
  }
  IncompleteTrajectory icp;
  icp.observed.assign(16, false);
  icp.observed[0] = icp.observed[5] = icp.observed[10] = icp.observed[15] =
      true;
  icp.ground_truth = std::move(t);

  for (size_t i = 0; i < 16; ++i) {
    auto position = encoder.RouteInterpolatedPosition(icp, i);
    ASSERT_TRUE(position.has_value()) << i;
    EXPECT_EQ(position->segment,
              icp.ground_truth.points[i].position.segment)
        << i;
    EXPECT_NEAR(position->ratio, icp.ground_truth.points[i].position.ratio,
                1e-6)
        << i;
  }
}

TEST_F(EncodingTest, DirectionMaskPrefersTravelDirection) {
  // On a two-way chain, the mask must rank the forward segment above its
  // reverse twin at interior missing steps.
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(20, 100.0);
  const roadnet::SegmentIndex index(chain);
  const TrajectoryEncoder encoder(chain, index);

  MatchedTrajectory t;
  t.epsilon_s = 10.0;
  for (int i = 0; i < 12; ++i) {
    const double meters = 80.0 * i;
    const int vertex = static_cast<int>(meters / 100.0);
    const double ratio = (meters - vertex * 100.0) / 100.0;
    const roadnet::SegmentId seg = chain.FindSegment(vertex, vertex + 1);
    t.points.push_back(MatchedPoint{{seg, ratio}, i * 10.0, i});
  }
  IncompleteTrajectory icp;
  icp.observed.assign(12, false);
  icp.observed[0] = icp.observed[11] = true;
  icp.ground_truth = std::move(t);

  for (size_t i = 1; i < 11; ++i) {
    const StepCandidates candidates = encoder_->CandidatesForStep(icp, i);
    (void)candidates;
    const StepCandidates chain_candidates = encoder.CandidatesForStep(icp, i);
    const int truth = icp.ground_truth.points[i].position.segment;
    const auto& seg = chain.segment(truth);
    const roadnet::SegmentId reverse = chain.FindSegment(seg.to, seg.from);
    double truth_mask = 1.0;
    double reverse_mask = 1.0;
    for (size_t k = 0; k < chain_candidates.segments.size(); ++k) {
      if (chain_candidates.segments[k] == truth) {
        truth_mask = chain_candidates.log_mask[k];
      }
      if (chain_candidates.segments[k] == reverse) {
        reverse_mask = chain_candidates.log_mask[k];
      }
    }
    EXPECT_LT(reverse_mask, truth_mask) << "step " << i;
  }
}

TEST(EncodingWidening, EmptySearchWidensToTheNearestRoads) {
  // Two one-way segments ~4 km apart with no route between them: the
  // missing midpoint falls back to the straight line, ~2 km from either
  // road and outside the gap-scaled search radius.
  roadnet::RoadNetwork network;
  const roadnet::VertexId a0 = network.AddVertex({39.9, 116.300});
  const roadnet::VertexId a1 = network.AddVertex({39.9, 116.301});
  const roadnet::VertexId b0 = network.AddVertex({39.9, 116.350});
  const roadnet::VertexId b1 = network.AddVertex({39.9, 116.351});
  const roadnet::SegmentId west = network.AddSegment(a0, a1);
  const roadnet::SegmentId east = network.AddSegment(b0, b1);
  network.Finalize();
  const roadnet::SegmentIndex index(network);
  const TrajectoryEncoder encoder(network, index);

  IncompleteTrajectory icp;
  icp.ground_truth.epsilon_s = 10.0;
  icp.ground_truth.points = {MatchedPoint{{west, 0.5}, 0.0, 0},
                             MatchedPoint{{east, 0.0}, 10.0, 1},
                             MatchedPoint{{east, 0.5}, 20.0, 2}};
  icp.observed = {true, false, true};
  ASSERT_FALSE(encoder.RouteInterpolatedPosition(icp, 1).has_value());
  const StepCandidates candidates = encoder.CandidatesForStep(icp, 1);
  ASSERT_EQ(candidates.segments.size(), 2u);
  EXPECT_EQ(candidates.log_mask.size(), 2u);
  EXPECT_EQ(candidates.segments[candidates.target_index], east);
  EXPECT_TRUE(candidates.target_in_range);
}

TEST_F(EncodingTest, FullyObservedTrajectoryHasNoMissingTargets) {
  IncompleteTrajectory icp = MakeSample(1.0, 36);
  for (size_t i = 0; i < icp.size(); ++i) icp.observed[i] = true;
  const auto targets = encoder_->EncodeTargets(icp);
  for (const StepTarget& target : targets) EXPECT_FALSE(target.missing);
}

}  // namespace
}  // namespace lighttr::traj

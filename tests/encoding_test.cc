// Tests for the trajectory encoder: features, targets, candidates, the
// constraint mask (Eq. 10/11), route-based interpolation, and the
// one-pass Encode against the per-step functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"
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

// Bitwise comparison of doubles (EXPECT_EQ would also accept -0 == 0).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Encode(t) must equal the per-step functions: inputs, targets, and the
// candidates of every missing step (observed steps carry none).
void ExpectEncodeMatchesPerStep(const TrajectoryEncoder& encoder,
                                const IncompleteTrajectory& icp) {
  const EncodedTrajectory encoded = encoder.Encode(icp);
  const nn::Matrix inputs = encoder.EncodeInputs(icp);
  ASSERT_EQ(encoded.inputs.rows(), inputs.rows());
  ASSERT_EQ(encoded.inputs.cols(), inputs.cols());
  for (size_t r = 0; r < inputs.rows(); ++r) {
    for (size_t c = 0; c < inputs.cols(); ++c) {
      EXPECT_TRUE(SameBits(encoded.inputs(r, c), inputs(r, c)))
          << r << "," << c;
    }
  }
  const std::vector<StepTarget> targets = encoder.EncodeTargets(icp);
  ASSERT_EQ(encoded.targets.size(), targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(encoded.targets[t].segment, targets[t].segment);
    EXPECT_TRUE(SameBits(encoded.targets[t].ratio, targets[t].ratio));
    EXPECT_EQ(encoded.targets[t].missing, targets[t].missing);
  }
  ASSERT_EQ(encoded.candidates.size(), icp.size());
  for (size_t t = 0; t < icp.size(); ++t) {
    const StepCandidates& got = encoded.candidates[t];
    if (icp.observed[t]) {
      EXPECT_TRUE(got.segments.empty()) << t;
      EXPECT_TRUE(got.log_mask.empty()) << t;
      continue;
    }
    const StepCandidates want = encoder.CandidatesForStep(icp, t);
    EXPECT_EQ(got.segments, want.segments) << t;
    ASSERT_EQ(got.log_mask.size(), want.log_mask.size()) << t;
    for (size_t k = 0; k < want.log_mask.size(); ++k) {
      EXPECT_TRUE(SameBits(got.log_mask[k], want.log_mask[k])) << t << "," << k;
    }
    EXPECT_EQ(got.target_index, want.target_index) << t;
    EXPECT_EQ(got.target_in_range, want.target_in_range) << t;
  }
}

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
  // Encode takes the same linear fallback.
  ExpectEncodeMatchesPerStep(encoder, icp);
}

TEST_F(EncodingTest, FullyObservedTrajectoryHasNoMissingTargets) {
  IncompleteTrajectory icp = MakeSample(1.0, 36);
  for (size_t i = 0; i < icp.size(); ++i) icp.observed[i] = true;
  const auto targets = encoder_->EncodeTargets(icp);
  for (const StepTarget& target : targets) EXPECT_FALSE(target.missing);
  ExpectEncodeMatchesPerStep(*encoder_, icp);
}

// ---------------------------------------------------------------------
// One-pass Encode.
// ---------------------------------------------------------------------

TEST_F(EncodingTest, EncodeMatchesPerStepOnSampledTrajectories) {
  for (uint64_t seed = 40; seed < 46; ++seed) {
    for (double keep : {0.0625, 0.125, 0.25}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " keep " << keep);
      ExpectEncodeMatchesPerStep(*encoder_, MakeSample(keep, seed));
    }
  }
}

TEST_F(EncodingTest, EncodeMatchesPerStepWithUnobservedEnds) {
  // The first and last steps missing: their gaps reach the trajectory
  // ends and take an unobserved end as the anchor.
  IncompleteTrajectory icp = MakeSample(0.25, 46);
  icp.observed.front() = false;
  icp.observed.back() = false;
  ExpectEncodeMatchesPerStep(*encoder_, icp);
  // Nothing observed at all: one gap spanning the whole trajectory.
  icp.observed.assign(icp.size(), false);
  ExpectEncodeMatchesPerStep(*encoder_, icp);
}

TEST(EncodeGaps, SameSegmentGapMatchesPerStep) {
  // Both anchors on one segment, the later one further along: the route
  // is that segment alone, no graph search.
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(6, 200.0);
  const roadnet::SegmentIndex index(chain);
  const TrajectoryEncoder encoder(chain, index);
  const roadnet::SegmentId seg = chain.FindSegment(1, 2);
  IncompleteTrajectory icp;
  icp.ground_truth.epsilon_s = 10.0;
  for (int i = 0; i < 6; ++i) {
    icp.ground_truth.points.push_back(
        MatchedPoint{{seg, 0.1 + 0.15 * i}, i * 10.0, i});
  }
  icp.observed = {true, false, false, false, false, true};
  for (size_t t = 1; t < 5; ++t) {
    const auto position = encoder.RouteInterpolatedPosition(icp, t);
    ASSERT_TRUE(position.has_value());
    EXPECT_EQ(position->segment, seg);
  }
  ExpectEncodeMatchesPerStep(encoder, icp);
}

// FNV-1a over the bytes of every field of the encodings of a workload.
class EncodingDigest {
 public:
  template <typename T>
  void Add(T value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }

  void Add(const EncodedTrajectory& encoded) {
    for (size_t r = 0; r < encoded.inputs.rows(); ++r) {
      for (size_t c = 0; c < encoded.inputs.cols(); ++c) {
        Add(encoded.inputs(r, c));
      }
    }
    for (const StepTarget& target : encoded.targets) {
      Add(target.segment);
      Add(target.ratio);
      Add(target.missing);
    }
    for (const StepCandidates& candidates : encoded.candidates) {
      Add(candidates.segments.size());
      for (int segment : candidates.segments) Add(segment);
      for (nn::Scalar mask : candidates.log_mask) Add(mask);
      Add(candidates.target_index);
      Add(candidates.target_in_range);
    }
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

uint64_t WorkloadDigest(const WorkloadProfile& base, double keep_ratio) {
  Rng rng(71);
  roadnet::CityGridOptions options;
  options.rows = 9;
  options.cols = 9;
  const roadnet::RoadNetwork network = roadnet::GenerateCityGrid(options, &rng);
  const roadnet::SegmentIndex index(network);
  const TrajectoryEncoder encoder(network, index);
  WorkloadProfile profile = base;
  profile.trajectories_per_client = 12;
  FederatedWorkloadOptions workload;
  workload.num_clients = 4;
  workload.keep_ratio = keep_ratio;
  Rng data(72);
  const std::vector<ClientDataset> clients =
      GenerateFederatedWorkload(network, profile, workload, &data);
  EncodingDigest digest;
  for (const ClientDataset& client : clients) {
    for (const auto* split : {&client.train, &client.valid, &client.test}) {
      for (const IncompleteTrajectory& icp : *split) {
        digest.Add(encoder.Encode(icp));
      }
    }
  }
  return digest.value();
}

TEST(EncodeGolden, DigestsMatchThePerStepEncoder) {
  // Recorded from the per-step encoder (EncodeInputs, EncodeTargets and
  // CandidatesForStep at every missing step) as it stood before the
  // one-pass Encode existed: Encode must reproduce it bit for bit,
  // including the order of tied directed-twin candidates.
  EXPECT_EQ(WorkloadDigest(GeolifeLikeProfile(), 0.125),
            0x6ab93ea05eacedd8ull);
  EXPECT_EQ(WorkloadDigest(TdriveLikeProfile(), 0.0625),
            0x0d69dd736d9db4b8ull);
}

TEST_F(EncodingTest, ConcurrentQueriesMatchSerialBitwise) {
  // Nearby's de-duplication scratch is per thread: four threads querying
  // one index (interleaved with a second index on the same threads)
  // must see exactly the serial results.
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(30, 120.0);
  const roadnet::SegmentIndex chain_index(chain);
  std::vector<IncompleteTrajectory> samples;
  struct Query {
    geo::GeoPoint point;
    double radius_m;
  };
  std::vector<Query> queries;
  for (uint64_t seed = 50; seed < 58; ++seed) {
    samples.push_back(MakeSample(0.125, seed));
    const IncompleteTrajectory& icp = samples.back();
    for (size_t t = 0; t < icp.size(); ++t) {
      queries.push_back({encoder_->InterpolatedPoint(icp, t),
                         150.0 + 50.0 * static_cast<double>(t % 8)});
    }
  }
  const geo::GeoPoint chain_probe = chain.vertex(3).position;

  using Result = std::vector<roadnet::SegmentIndex::Candidate>;
  std::vector<Result> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = index_->Nearby(queries[i].point, queries[i].radius_m);
  }
  std::vector<EncodedTrajectory> serial_encoded;
  for (const IncompleteTrajectory& icp : samples) {
    serial_encoded.push_back(encoder_->Encode(icp));
  }

  std::vector<Result> parallel(queries.size());
  std::vector<EncodedTrajectory> parallel_encoded(samples.size());
  ThreadPool pool(4);
  pool.ParallelFor(queries.size(), [&](size_t i) {
    EXPECT_FALSE(chain_index.Nearby(chain_probe, 200.0).empty());
    parallel[i] = index_->Nearby(queries[i].point, queries[i].radius_m);
  });
  pool.ParallelFor(samples.size(), [&](size_t i) {
    parallel_encoded[i] = encoder_->Encode(samples[i]);
  });

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), serial[i].size()) << i;
    for (size_t k = 0; k < serial[i].size(); ++k) {
      EXPECT_EQ(parallel[i][k].segment, serial[i][k].segment) << i;
      EXPECT_TRUE(SameBits(parallel[i][k].projection.distance_m,
                           serial[i][k].projection.distance_m))
          << i;
    }
  }
  for (size_t i = 0; i < samples.size(); ++i) {
    EncodingDigest a;
    EncodingDigest b;
    a.Add(serial_encoded[i]);
    b.Add(parallel_encoded[i]);
    EXPECT_EQ(a.value(), b.value()) << "trajectory " << i;
  }
}

}  // namespace
}  // namespace lighttr::traj

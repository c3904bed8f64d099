// Tests for the baseline recovery models (FC, RNN, MTrajRec, RNTrajRec),
// the model zoo, and the centralized trainer.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/centralized_trainer.h"
#include "baselines/fc_model.h"
#include "baselines/model_zoo.h"
#include "baselines/mtrajrec_model.h"
#include "baselines/rnn_model.h"
#include "baselines/rntrajrec_model.h"
#include "fl/local_trainer.h"
#include "nn/optimizer.h"
#include "roadnet/generators.h"
#include "roadnet/segment_index.h"
#include "traj/workload.h"

namespace lighttr::baselines {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() {
    Rng rng(61);
    roadnet::CityGridOptions options;
    options.rows = 6;
    options.cols = 6;
    network_ = roadnet::GenerateCityGrid(options, &rng);
    index_ = std::make_unique<roadnet::SegmentIndex>(network_);
    encoder_ = std::make_unique<traj::TrajectoryEncoder>(network_, *index_);

    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 6;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 2;
    workload.keep_ratio = 0.25;
    Rng data_rng(62);
    clients_ = traj::GenerateFederatedWorkload(network_, profile, workload,
                                               &data_rng);
  }

  void CheckModelBasics(fl::RecoveryModel* model) {
    EXPECT_GT(model->params().NumScalars(), 0);
    Rng rng(63);
    for (const auto& trajectory : clients_[0].train) {
      const fl::ForwardResult result = model->Forward(trajectory, true, &rng);
      EXPECT_TRUE(std::isfinite(result.loss.ScalarValue()));
      EXPECT_GE(result.loss.ScalarValue(), 0.0);
    }
    const auto& sample = clients_[0].test[0];
    const auto recovered = model->Recover(sample);
    ASSERT_EQ(recovered.size(), sample.size());
    for (size_t t = 0; t < sample.size(); ++t) {
      EXPECT_GE(recovered[t].segment, 0);
      EXPECT_LT(recovered[t].segment, network_.num_segments());
      EXPECT_GE(recovered[t].ratio, 0.0);
      EXPECT_LE(recovered[t].ratio, 1.0);
      if (sample.observed[t]) {
        EXPECT_EQ(recovered[t], sample.ground_truth.points[t].position);
      }
    }
  }

  void CheckTrainingReducesLoss(fl::RecoveryModel* model) {
    nn::AdamOptimizer optimizer(3e-3);
    fl::LocalTrainOptions options;
    options.epochs = 1;
    Rng rng(64);
    const double first = fl::TrainLocal(model, &optimizer, clients_[0].train,
                                        options, &rng);
    options.epochs = 10;
    const double later = fl::TrainLocal(model, &optimizer, clients_[0].train,
                                        options, &rng);
    EXPECT_LT(later, first);
  }

  roadnet::RoadNetwork network_;
  std::unique_ptr<roadnet::SegmentIndex> index_;
  std::unique_ptr<traj::TrajectoryEncoder> encoder_;
  std::vector<traj::ClientDataset> clients_;
};

TEST_F(BaselinesTest, FcModelBasicsAndTraining) {
  Rng rng(1);
  FcModel model(encoder_.get(), FcConfig{}, &rng);
  CheckModelBasics(&model);
  CheckTrainingReducesLoss(&model);
}

TEST_F(BaselinesTest, RnnModelBasicsAndTraining) {
  Rng rng(2);
  RnnModel model(encoder_.get(), RnnConfig{}, &rng);
  CheckModelBasics(&model);
  CheckTrainingReducesLoss(&model);
}

TEST_F(BaselinesTest, MTrajRecModelBasicsAndTraining) {
  Rng rng(3);
  MTrajRecModel model(encoder_.get(), MTrajRecConfig{}, &rng);
  CheckModelBasics(&model);
  CheckTrainingReducesLoss(&model);
}

TEST_F(BaselinesTest, RnTrajRecModelBasicsAndTraining) {
  Rng rng(4);
  RnTrajRecModel model(encoder_.get(), RnTrajRecConfig{}, &rng);
  CheckModelBasics(&model);
  CheckTrainingReducesLoss(&model);
}

TEST_F(BaselinesTest, ModelZooNamesAndFactories) {
  const std::vector<std::pair<ModelKind, std::string>> expectations = {
      {ModelKind::kFc, "FC+FL"},
      {ModelKind::kRnn, "RNN+FL"},
      {ModelKind::kMTrajRec, "MTrajRec+FL"},
      {ModelKind::kRnTrajRec, "RNTrajRec+FL"},
      {ModelKind::kLightTr, "LightTR"},
  };
  for (const auto& [kind, name] : expectations) {
    EXPECT_EQ(ModelKindName(kind), name);
    Rng rng(5);
    auto model = MakeFactory(kind, encoder_.get())(&rng);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
    EXPECT_GT(model->params().NumScalars(), 0);
  }
}

TEST_F(BaselinesTest, ModelSizeOrderingMatchesFig5) {
  // LightTR must be lighter than MTrajRec and RNTrajRec in parameters.
  Rng rng(6);
  auto light = MakeFactory(ModelKind::kLightTr, encoder_.get())(&rng);
  auto mtraj = MakeFactory(ModelKind::kMTrajRec, encoder_.get())(&rng);
  auto rntraj = MakeFactory(ModelKind::kRnTrajRec, encoder_.get())(&rng);
  EXPECT_LT(light->params().NumScalars(), mtraj->params().NumScalars());
  EXPECT_LT(mtraj->params().NumScalars(), rntraj->params().NumScalars());
}

TEST_F(BaselinesTest, CentralizedTrainerRuns) {
  CentralizedOptions options;
  options.epochs = 2;
  auto model = TrainCentralized(MakeFactory(ModelKind::kFc, encoder_.get()),
                                traj::MergeTrainSets(clients_), options);
  ASSERT_NE(model, nullptr);
  const auto recovered = model->Recover(clients_[0].test[0]);
  EXPECT_EQ(recovered.size(), clients_[0].test[0].size());
}

// Property: every model kind survives a federated round-trip of
// serialize -> deserialize with bitwise-equal float32 parameters.
class ModelSerializationProperty
    : public BaselinesTest,
      public ::testing::WithParamInterface<ModelKind> {};

TEST_P(ModelSerializationProperty, SerializeRoundTrip) {
  Rng r1(7);
  Rng r2(8);
  auto source = MakeFactory(GetParam(), encoder_.get())(&r1);
  auto dest = MakeFactory(GetParam(), encoder_.get())(&r2);
  ASSERT_TRUE(dest->params().Deserialize(source->params().Serialize()).ok());
  const auto a = source->params().Flatten();
  const auto b = dest->params().Flatten();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelSerializationProperty,
                         ::testing::Values(ModelKind::kFc, ModelKind::kRnn,
                                           ModelKind::kMTrajRec,
                                           ModelKind::kRnTrajRec,
                                           ModelKind::kLightTr));

// Metamorphic property: Recover reads only what a deployment has — the
// observed points — so replacing the ground truth of every missing
// point leaves its output bitwise unchanged, for every model kind.
class RecoverIgnoresHiddenTruth
    : public BaselinesTest,
      public ::testing::WithParamInterface<ModelKind> {};

TEST_P(RecoverIgnoresHiddenTruth, MissingTruthDoesNotReachRecover) {
  Rng rng(64);
  auto model = MakeFactory(GetParam(), encoder_.get())(&rng);
  nn::AdamOptimizer optimizer(3e-3);
  fl::LocalTrainOptions options;
  options.epochs = 1;
  fl::TrainLocal(model.get(), &optimizer, clients_[0].train, options, &rng);
  for (const auto& client : clients_) {
    for (const traj::IncompleteTrajectory& trajectory : client.test) {
      traj::IncompleteTrajectory decoy = trajectory;
      for (size_t t = 0; t < decoy.size(); ++t) {
        if (decoy.observed[t]) continue;
        roadnet::PointPosition& position =
            decoy.ground_truth.points[t].position;
        position.segment = (position.segment + 7) % network_.num_segments();
        position.ratio = 1.0 - position.ratio;
      }
      EXPECT_EQ(model->Recover(trajectory), model->Recover(decoy));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, RecoverIgnoresHiddenTruth,
                         ::testing::Values(ModelKind::kFc, ModelKind::kRnn,
                                           ModelKind::kMTrajRec,
                                           ModelKind::kRnTrajRec,
                                           ModelKind::kLightTr));

}  // namespace
}  // namespace lighttr::baselines

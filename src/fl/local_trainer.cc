#include "fl/local_trainer.h"

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::fl {

double TrainLocal(RecoveryModel* model, nn::Optimizer* optimizer,
                  const std::vector<traj::IncompleteTrajectory>& data,
                  const LocalTrainOptions& options, Rng* rng) {
  LIGHTTR_CHECK(model != nullptr);
  LIGHTTR_CHECK(optimizer != nullptr);
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK_GE(options.epochs, 1);
  LIGHTTR_CHECK_GE(options.lambda, 0.0);
  if (data.empty()) return 0.0;

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (const traj::IncompleteTrajectory& trajectory : data) {
      ForwardResult student = model->Forward(trajectory, /*training=*/true, rng);
      nn::Tensor loss = student.loss;
      if (options.teacher != nullptr && options.lambda > 0.0 &&
          student.representation.defined()) {
        nn::Matrix teacher_repr;
        {
          nn::NoGradScope no_grad;
          ForwardResult teacher = options.teacher->Forward(
              trajectory, /*training=*/false, nullptr);
          if (teacher.representation.defined()) {
            teacher_repr = teacher.representation.value();
          }
        }
        if (teacher_repr.SameShape(student.representation.value())) {
          loss = nn::Add(
              loss, nn::Scale(nn::L2DistillLoss(student.representation,
                                                teacher_repr),
                              static_cast<nn::Scalar>(options.lambda)));
        }
      }
      epoch_loss += loss.ScalarValue();
      loss.Backward();
      if (options.clip_norm > 0.0) {
        nn::ClipGradientsByGlobalNorm(
            &model->params(), static_cast<nn::Scalar>(options.clip_norm));
      }
      optimizer->Step(&model->params());
    }
    last_epoch_loss = epoch_loss / static_cast<double>(data.size());
  }
  return last_epoch_loss;
}

double EvaluateSegmentAccuracy(
    RecoveryModel* model,
    const std::vector<traj::IncompleteTrajectory>& data) {
  LIGHTTR_CHECK(model != nullptr);
  int64_t correct = 0;
  int64_t total = 0;
  for (const traj::IncompleteTrajectory& trajectory : data) {
    const std::vector<roadnet::PointPosition> recovered =
        model->Recover(trajectory);
    LIGHTTR_CHECK_EQ(recovered.size(), trajectory.size());
    for (size_t t = 0; t < trajectory.size(); ++t) {
      if (trajectory.observed[t]) continue;
      ++total;
      if (recovered[t].segment ==
          trajectory.ground_truth.points[t].position.segment) {
        ++correct;
      }
    }
  }
  if (total == 0) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(total);
}

double EvaluateMeanLoss(RecoveryModel* model,
                        const std::vector<traj::IncompleteTrajectory>& data) {
  LIGHTTR_CHECK(model != nullptr);
  if (data.empty()) return 0.0;
  nn::NoGradScope no_grad;
  double total = 0.0;
  for (const traj::IncompleteTrajectory& trajectory : data) {
    ForwardResult result = model->Forward(trajectory, /*training=*/false,
                                          nullptr);
    total += result.loss.ScalarValue();
  }
  return total / static_cast<double>(data.size());
}

}  // namespace lighttr::fl

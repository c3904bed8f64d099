#include "baselines/fc_model.h"

#include <algorithm>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::baselines {

FcModel::FcModel(const traj::TrajectoryEncoder* encoder,
                 const FcConfig& config, Rng* rng)
    : encoder_(encoder), config_(config) {
  LIGHTTR_CHECK(encoder != nullptr);
  LIGHTTR_CHECK_GE(config_.num_layers, 1u);
  size_t in_dim = traj::TrajectoryEncoder::kFeatureDim;
  for (size_t i = 0; i < config_.num_layers; ++i) {
    layers_.push_back(std::make_unique<nn::Dense>(
        in_dim, config_.hidden_dim, "fc" + std::to_string(i), &params_, rng));
    in_dim = config_.hidden_dim;
  }
  seg_head_ = std::make_unique<nn::Dense>(
      config_.hidden_dim, encoder_->num_segments(), "seg_head", &params_, rng);
  ratio_head_ = std::make_unique<nn::Dense>(config_.hidden_dim, 1,
                                            "ratio_head", &params_, rng);
}

nn::Tensor FcModel::HiddenForMissing(
    const traj::IncompleteTrajectory& trajectory, const nn::Matrix& inputs,
    bool training, Rng* rng, std::vector<size_t>* missing) const {
  *missing = trajectory.MissingIndices();
  nn::Tensor x = nn::Tensor::Constant(inputs);
  for (const auto& layer : layers_) {
    x = nn::Relu(layer->Forward(x));
    x = nn::Dropout(x, config_.dropout, training, rng);
  }
  // Gather the missing rows.
  std::vector<nn::Tensor> rows;
  rows.reserve(missing->size());
  for (size_t t : *missing) rows.push_back(nn::SliceRows(x, t, 1));
  if (rows.empty()) return nn::Tensor();
  return nn::ConcatRows(rows);
}

fl::ForwardResult FcModel::Forward(
    const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
  fl::ForwardResult result;
  const traj::EncodedTrajectory encoded = encoder_->Encode(trajectory);
  std::vector<size_t> missing;
  nn::Tensor hidden =
      HiddenForMissing(trajectory, encoded.inputs, training, rng, &missing);
  if (!hidden.defined()) {
    result.loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
    return result;
  }
  const std::vector<traj::StepTarget>& targets = encoded.targets;

  // Candidate-restricted decoding without the constraint-mask weights:
  // the baseline consumes map-matched data (spatial candidates) but has
  // neither the distance/route prior nor segment-embedding feedback.
  std::vector<nn::Tensor> ce_losses;
  nn::Matrix ratio_target(missing.size(), 1);
  for (size_t i = 0; i < missing.size(); ++i) {
    ratio_target(i, 0) = static_cast<nn::Scalar>(targets[missing[i]].ratio);
    const traj::StepCandidates& candidates = encoded.candidates[missing[i]];
    if (!candidates.target_in_range) continue;
    const nn::Tensor logits =
        nn::CandidateLogits(nn::SliceRows(hidden, i, 1), seg_head_->weight(),
                            seg_head_->bias(), candidates.segments);
    ce_losses.push_back(
        nn::SoftmaxCrossEntropy(logits, {candidates.target_index}));
  }
  const nn::Tensor ratio = nn::Sigmoid(ratio_head_->Forward(hidden));
  nn::Tensor loss = nn::Scale(nn::MseLoss(ratio, ratio_target),
                              static_cast<nn::Scalar>(config_.mu));
  if (!ce_losses.empty()) {
    nn::Tensor ce_total = ce_losses[0];
    for (size_t i = 1; i < ce_losses.size(); ++i) {
      ce_total = nn::Add(ce_total, ce_losses[i]);
    }
    loss = nn::Add(loss, nn::Scale(ce_total, nn::Scalar{1} /
                                   static_cast<nn::Scalar>(ce_losses.size())));
  }
  result.loss = loss;
  return result;
}

std::vector<roadnet::PointPosition> FcModel::Recover(
    const traj::IncompleteTrajectory& trajectory) {
  nn::NoGradScope no_grad;
  std::vector<roadnet::PointPosition> positions(trajectory.size());
  for (size_t t = 0; t < trajectory.size(); ++t) {
    positions[t] = trajectory.ground_truth.points[t].position;
  }
  const traj::EncodedTrajectory encoded = encoder_->Encode(trajectory);
  std::vector<size_t> missing;
  nn::Tensor hidden = HiddenForMissing(trajectory, encoded.inputs,
                                       /*training=*/false, nullptr, &missing);
  if (!hidden.defined()) return positions;
  const nn::Tensor ratio = nn::Sigmoid(ratio_head_->Forward(hidden));
  for (size_t i = 0; i < missing.size(); ++i) {
    const traj::StepCandidates& candidates = encoded.candidates[missing[i]];
    const nn::Tensor logits =
        nn::CandidateLogits(nn::SliceRows(hidden, i, 1), seg_head_->weight(),
                            seg_head_->bias(), candidates.segments);
    positions[missing[i]] = roadnet::PointPosition{
        candidates.segments[nn::ArgmaxRow(logits.value(), 0)],
        std::clamp(ratio.value()(i, 0), 0.0, 1.0)};
  }
  return positions;
}

}  // namespace lighttr::baselines

#include "baselines/mtrajrec_model.h"

#include <algorithm>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::baselines {

MTrajRecModel::MTrajRecModel(const traj::TrajectoryEncoder* encoder,
                             const MTrajRecConfig& config, Rng* rng,
                             std::string name)
    : name_(std::move(name)), encoder_(encoder), config_(config) {
  LIGHTTR_CHECK(encoder != nullptr);
  const size_t features = traj::TrajectoryEncoder::kFeatureDim;
  const size_t hidden = config_.hidden_dim;
  encoder_gru_ = std::make_unique<nn::GruCell>(features, hidden, "enc.gru",
                                               &params_, rng);
  // Decoder input: [features, attention context, prev seg-emb, prev ratio].
  const size_t dec_in = features + hidden + config_.seg_embed_dim + 1;
  decoder_gru_ = std::make_unique<nn::GruCell>(dec_in, hidden, "dec.gru",
                                               &params_, rng);
  head_ = std::make_unique<MtHead>(hidden, config_.seg_embed_dim,
                                   encoder_->num_segments(), "head", &params_,
                                   rng);
}

fl::ForwardResult MTrajRecModel::RunSequence(
    const traj::IncompleteTrajectory& trajectory, bool training,
    bool teacher_forcing, Rng* rng,
    std::vector<roadnet::PointPosition>* collect) {
  const traj::EncodedTrajectory encoded = encoder_->Encode(trajectory);
  const std::vector<traj::StepTarget>& targets = encoded.targets;
  const std::vector<size_t> anchors = trajectory.ObservedIndices();
  const size_t steps = trajectory.size();
  const nn::Tensor x_all = nn::Tensor::Constant(encoded.inputs);

  // Encoder over the observed anchors only (the low-sampling-rate view).
  std::vector<nn::Tensor> enc_states;
  enc_states.reserve(anchors.size());
  nn::Tensor h = encoder_gru_->InitialState();
  for (size_t a : anchors) {
    h = encoder_gru_->Forward(nn::SliceRows(x_all, a, 1), h);
    enc_states.push_back(h);
  }
  const nn::Tensor memory = nn::ConcatRows(enc_states);  // [A, H]

  // Decoder over every step with attention on the encoder memory.
  nn::Tensor state = h;  // initialise from the encoder's final state
  int prev_segment = targets[0].segment;
  double prev_ratio = targets[0].ratio;

  std::vector<nn::Tensor> ce_losses;
  std::vector<nn::Tensor> ratio_preds;
  std::vector<nn::Scalar> ratio_truths;
  std::vector<nn::Tensor> representation_rows;

  for (size_t t = 0; t < steps; ++t) {
    const nn::Tensor context =
        nn::ScaledDotProductAttention(state, memory, memory);
    const nn::Tensor prev_emb = head_->SegmentEmbedding(prev_segment);
    const nn::Tensor prev_ratio_tensor = nn::Tensor::Constant(
        nn::Matrix::Full(1, 1, static_cast<nn::Scalar>(prev_ratio)));
    nn::Tensor dec_in = nn::ConcatCols(
        nn::ConcatCols(nn::SliceRows(x_all, t, 1), context),
        nn::ConcatCols(prev_emb, prev_ratio_tensor));
    dec_in = nn::Dropout(dec_in, config_.dropout, training, rng);
    state = decoder_gru_->Forward(dec_in, state);

    if (!targets[t].missing) {
      prev_segment = targets[t].segment;
      prev_ratio = targets[t].ratio;
      if (collect != nullptr) {
        (*collect)[t] = trajectory.ground_truth.points[t].position;
      }
      continue;
    }

    const traj::StepCandidates& candidates = encoded.candidates[t];
    const MtHeadStep step = head_->Run(
        state, candidates, teacher_forcing ? targets[t].segment : -1);
    if (step.ce_loss.defined()) ce_losses.push_back(step.ce_loss);
    ratio_preds.push_back(step.ratio);
    ratio_truths.push_back(static_cast<nn::Scalar>(targets[t].ratio));
    representation_rows.push_back(state);

    if (collect != nullptr) {
      (*collect)[t] = roadnet::PointPosition{
          step.predicted_segment,
          std::clamp(step.ratio.value()(0, 0), 0.0, 1.0)};
    }
    prev_segment =
        teacher_forcing ? targets[t].segment : step.predicted_segment;
    prev_ratio =
        teacher_forcing ? targets[t].ratio : step.ratio.value()(0, 0);
  }

  fl::ForwardResult result;
  if (ratio_preds.empty()) {
    result.loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
    return result;
  }
  nn::Tensor loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
  if (!ce_losses.empty()) {
    nn::Tensor ce_total = ce_losses[0];
    for (size_t i = 1; i < ce_losses.size(); ++i) {
      ce_total = nn::Add(ce_total, ce_losses[i]);
    }
    loss = nn::Scale(
        ce_total, nn::Scalar{1} / static_cast<nn::Scalar>(ce_losses.size()));
  }
  nn::Matrix ratio_target(ratio_truths.size(), 1);
  for (size_t i = 0; i < ratio_truths.size(); ++i) {
    ratio_target(i, 0) = ratio_truths[i];
  }
  loss = nn::Add(loss,
                 nn::Scale(nn::MseLoss(nn::ConcatRows(ratio_preds),
                                       ratio_target),
                           static_cast<nn::Scalar>(config_.mu)));
  result.loss = loss;
  result.representation = nn::ConcatRows(representation_rows);
  return result;
}

fl::ForwardResult MTrajRecModel::Forward(
    const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
  return RunSequence(trajectory, training, /*teacher_forcing=*/true, rng,
                     nullptr);
}

std::vector<roadnet::PointPosition> MTrajRecModel::Recover(
    const traj::IncompleteTrajectory& trajectory) {
  nn::NoGradScope no_grad;
  std::vector<roadnet::PointPosition> positions(trajectory.size());
  RunSequence(trajectory, /*training=*/false, /*teacher_forcing=*/false,
              nullptr, &positions);
  return positions;
}

}  // namespace lighttr::baselines

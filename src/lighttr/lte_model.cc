#include "lighttr/lte_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::core {

LteModel::LteModel(const traj::TrajectoryEncoder* encoder,
                   const LteConfig& config, Rng* rng, std::string name)
    : name_(std::move(name)), encoder_(encoder), config_(config) {
  LIGHTTR_CHECK(encoder != nullptr);
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK_GE(config_.hidden_dim, 1u);
  LIGHTTR_CHECK_GE(config_.seg_embed_dim, 1u);
  LIGHTTR_CHECK_GE(config_.num_st_blocks, 1u);
  LIGHTTR_CHECK_GE(config_.mu, 0.0);

  const size_t feature_dim = traj::TrajectoryEncoder::kFeatureDim;
  const size_t hidden = config_.hidden_dim;
  const size_t num_segments = encoder_->num_segments();

  embed_gru_ = std::make_unique<nn::GruCell>(feature_dim, hidden, "embed.gru",
                                             &params_, rng);
  // First ST-block consumes [h_t, seg-embedding, ratio]; deeper blocks
  // chain on the previous block's hidden output.
  for (size_t b = 0; b < config_.num_st_blocks; ++b) {
    const size_t in_dim =
        (b == 0) ? hidden + config_.seg_embed_dim + 1 : hidden;
    st_rnn_.push_back(std::make_unique<nn::RnnCell>(
        in_dim, hidden, "st" + std::to_string(b) + ".rnn", &params_, rng));
  }
  head_dense_ =
      std::make_unique<nn::Dense>(hidden, hidden, "head.dense", &params_, rng);
  // The segment head starts at zero so the initial prediction equals the
  // constraint-mask prior (Eq. 11); training only moves logits away from
  // the prior where the data supports it.
  seg_w_ = nn::Tensor::Variable(nn::Matrix::Zeros(hidden, num_segments));
  seg_b_ = nn::Tensor::Variable(nn::Matrix::Zeros(1, num_segments));
  params_.Register("head.seg.w", seg_w_);
  params_.Register("head.seg.b", seg_b_);
  seg_embed_ = std::make_unique<nn::Embedding>(
      num_segments, config_.seg_embed_dim, "head.emb", &params_, rng);
  emb_proj_ = std::make_unique<nn::Dense>(config_.seg_embed_dim, hidden,
                                          "head.embproj", &params_, rng);
  ratio_head_ = std::make_unique<nn::Dense>(hidden + config_.seg_embed_dim, 1,
                                            "head.ratio", &params_, rng);
}

fl::ForwardResult LteModel::RunSequence(
    const traj::IncompleteTrajectory& trajectory, bool training,
    bool teacher_forcing, Rng* rng,
    std::vector<roadnet::PointPosition>* collect) {
  const traj::EncodedTrajectory encoded = encoder_->Encode(trajectory);
  const std::vector<traj::StepTarget>& targets = encoded.targets;
  const size_t steps = trajectory.size();
  const nn::Tensor x_all = nn::Tensor::Constant(encoded.inputs);

  // Embedding model (Eq. 5/6): one GRU layer over the whole sequence.
  std::vector<nn::Tensor> embedded;
  embedded.reserve(steps);
  nn::Tensor h = embed_gru_->InitialState();
  for (size_t t = 0; t < steps; ++t) {
    h = embed_gru_->Forward(nn::SliceRows(x_all, t, 1), h);
    embedded.push_back(
        nn::Dropout(h, config_.dropout, training, rng));
  }

  // ST-blocks (Eq. 7-9), decoded sequentially because e_{t-1} and
  // r_{t-1} feed step t.
  std::vector<nn::Tensor> block_state(st_rnn_.size());
  for (size_t b = 0; b < st_rnn_.size(); ++b) {
    block_state[b] = st_rnn_[b]->InitialState();
  }
  int prev_segment = targets[0].segment;
  double prev_ratio = targets[0].ratio;

  std::vector<nn::Tensor> ce_losses;
  std::vector<nn::Tensor> ratio_preds;
  std::vector<nn::Scalar> ratio_truths;
  std::vector<nn::Tensor> representation_rows;

  for (size_t t = 0; t < steps; ++t) {
    const nn::Tensor prev_emb = seg_embed_->Forward({prev_segment});
    const nn::Tensor prev_ratio_tensor = nn::Tensor::Constant(
        nn::Matrix::Full(1, 1, static_cast<nn::Scalar>(prev_ratio)));
    nn::Tensor state = nn::ConcatCols(
        nn::ConcatCols(embedded[t], prev_emb), prev_ratio_tensor);
    for (size_t b = 0; b < st_rnn_.size(); ++b) {
      state = st_rnn_[b]->Forward(state, block_state[b]);
      block_state[b] = state;
    }
    const nn::Tensor& h_prime = state;

    if (!targets[t].missing) {
      // Observed step: the MT head is skipped; ground truth drives the
      // recurrent conditioning (and Recover returns it verbatim).
      prev_segment = targets[t].segment;
      prev_ratio = targets[t].ratio;
      if (collect != nullptr) {
        (*collect)[t] = trajectory.ground_truth.points[t].position;
      }
      continue;
    }

    // Constraint mask layer (Eq. 10/11): candidate-restricted logits
    // with additive log-mask.
    const traj::StepCandidates& candidates = encoded.candidates[t];
    const nn::Tensor h_d = head_dense_->Forward(h_prime);
    const nn::Tensor logits =
        nn::CandidateLogits(h_d, seg_w_, seg_b_, candidates.segments);
    const nn::Matrix mask_row = nn::Matrix::RowVector(candidates.log_mask);
    if (candidates.target_in_range) {
      ce_losses.push_back(nn::SoftmaxCrossEntropy(
          logits, {candidates.target_index}, &mask_row));
    }

    // Predicted segment = argmax of masked logits.
    size_t best = 0;
    for (size_t k = 1; k < candidates.segments.size(); ++k) {
      if (logits.value()(0, k) + mask_row(0, k) >
          logits.value()(0, best) + mask_row(0, best)) {
        best = k;
      }
    }
    const int predicted_segment = candidates.segments[best];

    // Ratio path of Eq. 8; sigma keeps r in [0, 1] (see DESIGN.md).
    const int conditioning_segment =
        teacher_forcing ? targets[t].segment : predicted_segment;
    const nn::Tensor e_emb = seg_embed_->Forward({conditioning_segment});
    const nn::Tensor h_e =
        nn::Relu(nn::Add(h_d, emb_proj_->Forward(e_emb)));
    const nn::Tensor ratio =
        nn::Sigmoid(ratio_head_->Forward(nn::ConcatCols(h_e, e_emb)));
    ratio_preds.push_back(ratio);
    ratio_truths.push_back(static_cast<nn::Scalar>(targets[t].ratio));
    representation_rows.push_back(h_prime);

    if (collect != nullptr) {
      (*collect)[t] = roadnet::PointPosition{
          predicted_segment, std::clamp(ratio.value()(0, 0), 0.0, 1.0)};
    }
    prev_segment = conditioning_segment;
    prev_ratio = teacher_forcing ? targets[t].ratio : ratio.value()(0, 0);
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
  if (config_.mu > 0.0) {
    nn::Matrix ratio_target(ratio_truths.size(), 1);
    for (size_t i = 0; i < ratio_truths.size(); ++i) {
      ratio_target(i, 0) = ratio_truths[i];
    }
    const nn::Tensor ratio_mat = nn::ConcatRows(ratio_preds);
    loss = nn::Add(loss, nn::Scale(nn::MseLoss(ratio_mat, ratio_target),
                                   static_cast<nn::Scalar>(config_.mu)));
  }
  result.loss = loss;
  result.representation = nn::ConcatRows(representation_rows);
  return result;
}

fl::ForwardResult LteModel::Forward(
    const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
  return RunSequence(trajectory, training, /*teacher_forcing=*/true, rng,
                     nullptr);
}

std::vector<roadnet::PointPosition> LteModel::Recover(
    const traj::IncompleteTrajectory& trajectory) {
  nn::NoGradScope no_grad;
  std::vector<roadnet::PointPosition> positions(trajectory.size());
  RunSequence(trajectory, /*training=*/false, /*teacher_forcing=*/false,
              nullptr, &positions);
  return positions;
}

}  // namespace lighttr::core

// RNN+FL baseline (paper Sec. V-A3): stacked recurrent layers over the
// encoded trajectory with full-vocabulary segment prediction. Captures
// temporal dependencies but lacks the constraint mask and multi-task
// segment-embedding feedback of LightTR.
#ifndef LIGHTTR_BASELINES_RNN_MODEL_H_
#define LIGHTTR_BASELINES_RNN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "fl/recovery_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::baselines {

/// Configuration for RnnModel.
struct RnnConfig {
  size_t hidden_dim = 32;
  size_t num_layers = 2;
  double dropout = 0.2;
  double mu = 1.0;
};

/// Stacked-GRU recovery model.
class RnnModel : public fl::RecoveryModel {
 public:
  RnnModel(const traj::TrajectoryEncoder* encoder, const RnnConfig& config,
           Rng* rng);

  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool training, Rng* rng) override;

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override;

 private:
  nn::Tensor HiddenForMissing(const traj::IncompleteTrajectory& trajectory,
                              const nn::Matrix& inputs, bool training,
                              Rng* rng,
                              std::vector<size_t>* missing) const;

  std::string name_ = "RNN+FL";
  const traj::TrajectoryEncoder* encoder_;
  RnnConfig config_;
  nn::ParameterSet params_;
  std::vector<std::unique_ptr<nn::GruCell>> layers_;
  std::unique_ptr<nn::Dense> seg_head_;
  std::unique_ptr<nn::Dense> ratio_head_;
};

}  // namespace lighttr::baselines

#endif  // LIGHTTR_BASELINES_RNN_MODEL_H_

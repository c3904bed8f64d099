// FC+FL baseline (paper Sec. V-A3): stacked fully-connected layers
// applied per step, with full-vocabulary segment prediction and no
// temporal recurrence — the weakest baseline in Table IV.
#ifndef LIGHTTR_BASELINES_FC_MODEL_H_
#define LIGHTTR_BASELINES_FC_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "fl/recovery_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::baselines {

/// Configuration for FcModel.
struct FcConfig {
  size_t hidden_dim = 64;
  size_t num_layers = 2;
  double dropout = 0.2;
  double mu = 1.0;
};

/// Per-step MLP recovery model (no sequence modeling).
class FcModel : public fl::RecoveryModel {
 public:
  FcModel(const traj::TrajectoryEncoder* encoder, const FcConfig& config,
          Rng* rng);

  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool training, Rng* rng) override;

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override;

 private:
  /// Hidden activations of the missing steps, [M, hidden], computed
  /// from the encoded `inputs`, plus the missing step indices.
  nn::Tensor HiddenForMissing(const traj::IncompleteTrajectory& trajectory,
                              const nn::Matrix& inputs, bool training,
                              Rng* rng,
                              std::vector<size_t>* missing) const;

  std::string name_ = "FC+FL";
  const traj::TrajectoryEncoder* encoder_;
  FcConfig config_;
  nn::ParameterSet params_;
  std::vector<std::unique_ptr<nn::Dense>> layers_;
  std::unique_ptr<nn::Dense> seg_head_;    // hidden -> num_segments
  std::unique_ptr<nn::Dense> ratio_head_;  // hidden -> 1
};

}  // namespace lighttr::baselines

#endif  // LIGHTTR_BASELINES_FC_MODEL_H_

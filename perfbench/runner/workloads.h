// The benchmark's workloads: their fixed inputs, the set-up that
// generates them from a seed, and the training run each one measures.
#ifndef LIGHTTR_PERFBENCH_WORKLOADS_H_
#define LIGHTTR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "eval/harness.h"
#include "fl/federated_trainer.h"
#include "lighttr/pipeline.h"
#include "trace.h"
#include "traj/workload.h"

namespace perfbench {

/// Fixed description of one workload (everything but the seed).
struct Spec {
  std::string name;
  bool tdrive = false;       // tdrive-like profile (else geolife-like)
  int grid = 9;              // city intersections per side
  int clients = 8;           // training clients
  int trajectories_per_client = 20;
  double keep = 0.125;       // keep ratio of the downsampling
  int threads = 1;           // executor threads (and GEMM pool width)
  int rounds = 5;
  int local_epochs = 2;
  bool lighttr = true;       // Algorithm 1 + 2 + 3; false = plain FedAvg
  /// Mildly lossy channel, Multi-Krum, health monitor and per-round
  /// snapshots + journal in an in-memory filesystem.
  bool hardened_server = false;
  /// The held-out set is the training clients' test splits plus
  /// `unseen_clients` x `unseen_trajectories` trajectories from clients
  /// that never train (homes drawn apart, same profile and keep ratio).
  int unseen_clients = 0;
  int unseen_trajectories = 0;
  /// recover-tdrive: the model is trained during set-up and the
  /// measured work is recovering the held-out set.
  bool recover_only = false;
  /// Set-ups per measured round of operations (setup_s is the median
  /// over the run).
  int setups = 1;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<Spec>& Workloads();
const Spec* FindWorkload(const std::string& name);

/// Inputs of the fixed hidden-truth probe: one spec, one seed that
/// never changes with --seed.
const Spec& HiddenTruthProbeSpec();
uint64_t HiddenTruthProbeSeed();

/// A finished training run; owns everything the global model needs.
struct TrainedRun {
  std::unique_ptr<lighttr::core::LightTrPipeline> pipeline;  // untraced LightTR
  std::unique_ptr<lighttr::fl::RecoveryModel> teacher;       // traced LightTR
  std::unique_ptr<lighttr::core::MetaLocalUpdate> meta;      // traced LightTR
  std::unique_ptr<lighttr::fl::FederatedTrainer> trainer;
  std::unique_ptr<lighttr::FaultyFileSystem> memory_fs;
  std::unique_ptr<CountingFileSystem> counting_fs;  // traced only
  std::unique_ptr<TimingUpdate> timing;             // traced only
  lighttr::fl::FederatedRunResult result;
  double train_seconds = 0.0;  // teacher + federated wall time
  int64_t train_flops = 0;     // FLOPs counted during training

  lighttr::fl::RecoveryModel* model() const;
  lighttr::FileSystem* durable_fs() const;
};

/// Everything set-up builds from the seed. Trainers keep pointers into
/// it, so it lives at a fixed address (Setup returns it boxed).
struct Inputs {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  std::unique_ptr<lighttr::eval::ExperimentEnv> env;
  std::vector<lighttr::traj::ClientDataset> clients;
  /// Trajectories the quality metrics are computed on (see Spec).
  std::vector<lighttr::traj::IncompleteTrajectory> held_out;
  /// recover-tdrive: the model trained during set-up.
  std::unique_ptr<TrainedRun> pretrained;
  double setup_seconds = 0.0;
};

/// Generates the workload's inputs (and for recover-tdrive trains its
/// model). With `spans` set, records roadnet.build / traj.workload /
/// training spans.
std::unique_ptr<Inputs> Setup(const Spec& spec, uint64_t seed,
                              SpanLog* spans);

/// Options of the federated phase for `spec` at `seed`.
lighttr::fl::FederatedTrainerOptions FederatedOptions(const Spec& spec,
                                                      uint64_t seed);
lighttr::core::LightTrOptions PipelineOptions(const Spec& spec, uint64_t seed);

/// The model factory every replica of `inputs` is built by.
lighttr::fl::ModelFactory Factory(const Inputs& inputs);

/// Trains the workload's model. Untraced (`spans` null) LightTR goes
/// through LightTrPipeline; traced runs compose the same public calls
/// with a TimingUpdate around the strategy and a CountingFileSystem
/// around the in-memory durability filesystem.
std::unique_ptr<TrainedRun> Train(const Inputs& inputs, SpanLog* spans);

/// Bitwise fingerprint of a model: its float64 checkpoint blob.
std::string Fingerprint(lighttr::fl::RecoveryModel* model);

/// Directory of the in-memory snapshots and journal.
const char* DurableDir();

}  // namespace perfbench

#endif  // LIGHTTR_PERFBENCH_WORKLOADS_H_

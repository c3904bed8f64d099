#include "workloads.h"

#include "lighttr/lte_model.h"
#include "lighttr/meta_local_update.h"
#include "lighttr/teacher_training.h"
#include "nn/checkpoint.h"
#include "nn/flops.h"

namespace perfbench {

namespace {

std::vector<Spec> MakeWorkloads() {
  std::vector<Spec> specs;

  Spec geolife;
  geolife.name = "lighttr-geolife";
  geolife.grid = 9;
  geolife.clients = 8;
  geolife.trajectories_per_client = 20;
  geolife.unseen_clients = 100;
  geolife.unseen_trajectories = 10;
  geolife.keep = 0.125;
  geolife.threads = 1;
  geolife.rounds = 5;
  geolife.local_epochs = 2;
  geolife.lighttr = true;
  geolife.setups = 3;
  specs.push_back(geolife);

  Spec fleet;
  fleet.name = "fedavg-fleet";
  fleet.grid = 9;
  fleet.clients = 48;
  fleet.trajectories_per_client = 6;
  fleet.keep = 0.125;
  fleet.threads = 4;
  fleet.rounds = 5;
  fleet.local_epochs = 1;
  fleet.lighttr = false;
  fleet.hardened_server = true;
  fleet.setups = 3;
  fleet.unseen_clients = 100;
  fleet.unseen_trajectories = 10;
  specs.push_back(fleet);

  Spec recover;
  recover.name = "recover-tdrive";
  recover.tdrive = true;
  recover.grid = 12;
  recover.clients = 8;
  recover.trajectories_per_client = 20;
  recover.keep = 0.0625;
  recover.threads = 1;
  recover.rounds = 3;
  recover.local_epochs = 1;
  recover.lighttr = false;
  recover.recover_only = true;
  recover.unseen_clients = 100;
  recover.unseen_trajectories = 20;
  specs.push_back(recover);
  return specs;
}

lighttr::traj::WorkloadProfile ProfileOf(const Spec& spec,
                                         int trajectories_per_client) {
  lighttr::traj::WorkloadProfile profile =
      spec.tdrive ? lighttr::traj::TdriveLikeProfile()
                  : lighttr::traj::GeolifeLikeProfile();
  profile.trajectories_per_client = trajectories_per_client;
  return profile;
}

}  // namespace

const std::vector<Spec>& Workloads() {
  static const std::vector<Spec> specs = MakeWorkloads();
  return specs;
}

const Spec* FindWorkload(const std::string& name) {
  for (const Spec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const Spec& HiddenTruthProbeSpec() {
  static const Spec spec = [] {
    Spec probe;
    probe.name = "hidden-truth-probe";
    probe.tdrive = true;
    probe.grid = 12;
    probe.clients = 12;
    probe.trajectories_per_client = 20;
    probe.keep = 0.0625;
    probe.threads = 4;
    probe.rounds = 4;
    probe.local_epochs = 1;
    probe.lighttr = false;
    return probe;
  }();
  return spec;
}

uint64_t HiddenTruthProbeSeed() { return 42; }

const char* DurableDir() { return "/perfbench/run"; }

lighttr::fl::RecoveryModel* TrainedRun::model() const {
  return pipeline != nullptr ? pipeline->global_model()
                             : trainer->global_model();
}

lighttr::FileSystem* TrainedRun::durable_fs() const {
  if (counting_fs != nullptr) return counting_fs.get();
  return memory_fs.get();
}

lighttr::fl::FederatedTrainerOptions FederatedOptions(const Spec& spec,
                                                      uint64_t seed) {
  lighttr::fl::FederatedTrainerOptions fed;
  fed.rounds = spec.rounds;
  fed.local_epochs = spec.local_epochs;
  // The library's canonical rate for the scaled-down round budget
  // (eval::DefaultRunOptions).
  fed.learning_rate = 3e-3;
  fed.seed = seed + 3;
  fed.threads = spec.threads;
  if (spec.hardened_server) {
    fed.transport.channel_seed = seed + 5;
    fed.transport.channel.drop_rate = 0.02;
    fed.transport.channel.corrupt_rate = 0.01;
    fed.transport.channel.duplicate_rate = 0.01;
    // With eight retries over a few percent frame loss a client-round is
    // practically never lost; the run checks net_lost == 0.
    fed.transport.retry.max_retries = 8;
    fed.tolerance.aggregator.policy =
        lighttr::fl::AggregatorPolicy::kMultiKrum;
    fed.healing.enabled = true;
    fed.durability.dir = DurableDir();
    fed.durability.snapshot_every = 1;
  }
  return fed;
}

lighttr::core::LightTrOptions PipelineOptions(const Spec& spec,
                                              uint64_t seed) {
  lighttr::core::LightTrOptions options;
  options.federated = FederatedOptions(spec, seed);
  options.teacher.learning_rate = options.federated.learning_rate;
  options.use_teacher = spec.lighttr;
  return options;
}

lighttr::fl::ModelFactory Factory(const Inputs& inputs) {
  const lighttr::traj::TrajectoryEncoder* encoder = &inputs.env->encoder();
  return [encoder](lighttr::Rng* rng) {
    return std::make_unique<lighttr::core::LteModel>(
        encoder, lighttr::core::LteConfig{}, rng);
  };
}

std::unique_ptr<Inputs> Setup(const Spec& spec, uint64_t seed,
                              SpanLog* spans) {
  auto boxed = std::make_unique<Inputs>();
  Inputs& inputs = *boxed;
  inputs.spec = &spec;
  inputs.seed = seed;
  const double start = NowSeconds();
  {
    const int id = spans != nullptr ? spans->Open("roadnet.build") : -1;
    inputs.env =
        std::make_unique<lighttr::eval::ExperimentEnv>(spec.grid, spec.grid,
                                                       seed);
    if (spans != nullptr) spans->Close(id);
  }
  {
    const int id = spans != nullptr ? spans->Open("traj.workload") : -1;
    lighttr::traj::FederatedWorkloadOptions options;
    options.num_clients = spec.clients;
    options.keep_ratio = spec.keep;
    inputs.clients = inputs.env->MakeWorkload(
        ProfileOf(spec, spec.trajectories_per_client), options, seed + 1);
    inputs.held_out = lighttr::eval::ExperimentEnv::PooledTestSet(
        inputs.clients, spec.clients * spec.trajectories_per_client);
    if (spec.unseen_clients > 0) {
      lighttr::traj::FederatedWorkloadOptions unseen = options;
      unseen.num_clients = spec.unseen_clients;
      const auto unseen_clients = inputs.env->MakeWorkload(
          ProfileOf(spec, spec.unseen_trajectories), unseen, seed + 2);
      for (const auto& client : unseen_clients) {
        for (const auto* split :
             {&client.train, &client.valid, &client.test}) {
          inputs.held_out.insert(inputs.held_out.end(), split->begin(),
                                 split->end());
        }
      }
    }
    if (spans != nullptr) spans->Close(id);
  }
  if (spec.recover_only) inputs.pretrained = Train(inputs, spans);
  inputs.setup_seconds = NowSeconds() - start;
  return boxed;
}

std::unique_ptr<TrainedRun> Train(const Inputs& inputs, SpanLog* spans) {
  const Spec& spec = *inputs.spec;
  auto run = std::make_unique<TrainedRun>();
  lighttr::core::LightTrOptions options = PipelineOptions(spec, inputs.seed);
  if (spec.hardened_server) {
    run->memory_fs = std::make_unique<lighttr::FaultyFileSystem>();
    if (spans != nullptr) {
      run->counting_fs = std::make_unique<CountingFileSystem>(
          run->memory_fs.get());
    }
    options.federated.durability.fs = run->durable_fs();
  }
  const lighttr::traj::TrajectoryEncoder* encoder = &inputs.env->encoder();

  lighttr::nn::ScopedFlopCount flops;
  const double start = NowSeconds();
  if (spans == nullptr) {
    if (spec.lighttr) {
      run->pipeline = std::make_unique<lighttr::core::LightTrPipeline>(
          encoder, &inputs.clients, options);
      run->result = run->pipeline->Train().federated;
    } else {
      run->trainer = std::make_unique<lighttr::fl::FederatedTrainer>(
          Factory(inputs), &inputs.clients, options.federated);
      run->result = run->trainer->Run();
    }
  } else {
    // The same calls LightTrPipeline makes, in the same order, with the
    // benchmark's probes around them.
    const lighttr::fl::ModelFactory factory = Factory(inputs);
    {
      ScopedSpan span(spans, "fl.trainer_init");
      run->trainer = std::make_unique<lighttr::fl::FederatedTrainer>(
          factory, &inputs.clients, options.federated);
    }
    lighttr::fl::LocalUpdateStrategy* inner = nullptr;
    if (spec.lighttr) {
      {
        ScopedSpan span(spans, "lighttr.teacher");
        run->teacher = lighttr::core::TrainTeacher(factory, inputs.clients,
                                                   options.teacher);
      }
      lighttr::core::MetaLocalOptions meta = options.meta;
      if (meta.clip_norm <= 0.0) meta.clip_norm = options.federated.clip_norm;
      run->meta = std::make_unique<lighttr::core::MetaLocalUpdate>(
          run->teacher.get(), meta);
      inner = run->meta.get();
    }
    run->timing =
        std::make_unique<TimingUpdate>(inner, options.federated.clip_norm);
    ScopedSpan span(spans, "fl.run");
    run->result = run->trainer->Run(run->timing.get());
  }
  run->train_seconds = NowSeconds() - start;
  run->train_flops = flops.Elapsed();
  return run;
}

std::string Fingerprint(lighttr::fl::RecoveryModel* model) {
  return lighttr::nn::SerializeCheckpoint(model->params(),
                                          lighttr::nn::CheckpointDtype::kFloat64);
}

}  // namespace perfbench

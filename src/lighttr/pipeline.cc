#include "lighttr/pipeline.h"

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/stopwatch.h"
#include "fl/comm_stats.h"

namespace lighttr::core {

std::string SummarizeResilience(const fl::FederatedRunResult& run) {
  const fl::FaultStats& faults = run.faults;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "cohort %.0f%%",
                faults.MeanCohortFraction() * 100.0);
  std::string summary = buffer;
  for (const fl::FaultCounter& counter : fl::kFaultCounters) {
    const int64_t value = faults.*counter.total;
    if (value == 0) continue;
    summary += " | ";
    summary += counter.name;
    summary += ' ';
    summary += std::to_string(value);
  }
  return summary;
}

LightTrPipeline::LightTrPipeline(
    const traj::TrajectoryEncoder* encoder,
    const std::vector<traj::ClientDataset>* clients, LightTrOptions options)
    : encoder_(encoder), clients_(clients), options_(options) {
  LIGHTTR_CHECK(encoder != nullptr);
  LIGHTTR_CHECK(clients != nullptr);
  const LteConfig lte = options_.lte;
  const traj::TrajectoryEncoder* enc = encoder_;
  factory_ = [enc, lte](Rng* rng) {
    return std::make_unique<LteModel>(enc, lte, rng);
  };
  trainer_ = std::make_unique<fl::FederatedTrainer>(factory_, clients_,
                                                    options_.federated);
}

LightTrResult LightTrPipeline::Train() {
  LightTrResult result;
  if (options_.use_teacher) {
    Stopwatch watch;
    teacher_ = TrainTeacher(factory_, *clients_, options_.teacher);
    result.teacher_seconds = watch.ElapsedSeconds();
  }
  MetaLocalOptions meta = options_.meta;
  if (meta.clip_norm <= 0.0) meta.clip_norm = options_.federated.clip_norm;
  MetaLocalUpdate strategy(teacher_.get(), meta);
  result.federated = trainer_->Run(options_.use_teacher ? &strategy : nullptr);
  return result;
}

}  // namespace lighttr::core

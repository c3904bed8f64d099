// Per-layer metrics of a traced run: figures read off the run's spans
// and wrappers, plus probes that replay the workload's own inputs
// through each layer's public functions.
#ifndef LIGHTTR_PERFBENCH_PROBES_H_
#define LIGHTTR_PERFBENCH_PROBES_H_

#include "checks.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Adds every per-layer metric to `report`. `traced` is the traced
/// training run of `inputs`, `spans` its span log and `recovery` the
/// traced evaluation of its held-out set.
void RunLayerProbes(const Inputs& inputs, const TrainedRun& traced,
                    const SpanLog& spans, const Recovery& recovery,
                    Report* report);

}  // namespace perfbench

#endif  // LIGHTTR_PERFBENCH_PROBES_H_

// lighttr_perfbench: end-to-end benchmark of the LightTR library.
//
//   lighttr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, measures it for the
// given number of seconds, checks the outputs, and prints one JSON
// result line last on stdout (see perfbench/README.md). --trace 0
// prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once traced and prints the per-layer metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "probes.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// The fixed hidden-truth probe: a model trained on inputs that do not
/// depend on --seed, whose held-out set is recovered twice per measured
/// round (once as given, once with the missing ground truth replaced).
struct HiddenTruthProbe {
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<TrainedRun> run;
};

HiddenTruthProbe BuildHiddenTruthProbe() {
  HiddenTruthProbe probe;
  probe.inputs =
      Setup(HiddenTruthProbeSpec(), HiddenTruthProbeSeed(), nullptr);
  probe.run = Train(*probe.inputs, nullptr);
  return probe;
}

/// One round of the probe's operations; returns the changed ids.
std::vector<int> RunHiddenTruthProbe(const HiddenTruthProbe& probe,
                                     Report* report) {
  const Inputs& inputs = *probe.inputs;
  const Recovery recovery = RecoverAll(probe.run->model(),
                                       inputs.env->network(), inputs.held_out);
  std::vector<int> changed =
      HiddenTruthChanges(probe.run->model(), inputs.held_out, recovery.outputs);
  report->CountOps(static_cast<int64_t>(inputs.held_out.size()),
                   static_cast<int64_t>(changed.size()));
  return changed;
}

/// Checks that hold for every training run: loss falls, every round
/// meets quorum, the measured traffic covers the exchanged models, and
/// (hardened server) the snapshot and journal describe the run.
void CheckTraining(const std::string& label, const Inputs& inputs,
                   const TrainedRun& run, Report* report) {
  const auto& history = run.result.history;
  const Spec& spec = *inputs.spec;
  if (static_cast<int>(history.size()) != spec.rounds) {
    report->Fail(label + ": history has " + std::to_string(history.size()) +
                 " rounds, expected " + std::to_string(spec.rounds));
    return;
  }
  if (!(history.back().mean_train_loss < history.front().mean_train_loss)) {
    report->Fail(label + ": last-round train loss did not fall below the "
                         "first round's");
  }
  int64_t cohort_rounds = 0;
  for (const auto& record : history) {
    if (!record.quorum_met) {
      report->Fail(label + ": round " + std::to_string(record.round) +
                   " missed quorum");
    }
    cohort_rounds += record.sampled;
  }
  if (run.result.faults.net_lost != 0) {
    report->Fail(label + ": " + std::to_string(run.result.faults.net_lost) +
                 " client-rounds lost to the network");
  }
  // Every sampled client pulls the float32 global model (4 bytes per
  // scalar) and pushes a float64 update (8 bytes per scalar).
  const int64_t scalars = run.model()->params().NumScalars();
  const int64_t floor_bytes = cohort_rounds * scalars * (4 + 8);
  if (run.result.comm.TotalBytes() < floor_bytes) {
    report->Fail(label + ": comm bytes " +
                 std::to_string(run.result.comm.TotalBytes()) +
                 " below the model-exchange floor " +
                 std::to_string(floor_bytes));
  }
  if (!spec.hardened_server) return;

  lighttr::FileSystem* fs = run.durable_fs();
  auto rounds = lighttr::fl::ListSnapshotRounds(fs, DurableDir());
  if (!rounds.ok() || rounds.value().empty()) {
    report->Fail(label + ": no snapshot written");
    return;
  }
  const int newest = rounds.value().back();
  auto state = lighttr::fl::LoadRunState(
      fs, lighttr::fl::SnapshotPath(DurableDir(), newest));
  if (!state.ok()) {
    report->Fail(label + ": newest snapshot does not load: " +
                 state.status().ToString());
  } else if (newest != spec.rounds ||
             state.value().global_params_blob != Fingerprint(run.model())) {
    report->Fail(label + ": newest snapshot's global model differs from "
                         "the trained one");
  }
  auto journal = lighttr::fl::ReadJournal(fs, DurableDir());
  if (!journal.ok() ||
      static_cast<int>(journal.value().size()) != spec.rounds) {
    report->Fail(label + ": journal does not hold one record per round");
  } else {
    for (int r = 0; r < spec.rounds; ++r) {
      if (journal.value()[static_cast<size_t>(r)].round != r + 1) {
        report->Fail(label + ": journal record out of order");
        break;
      }
    }
  }
}

/// Quality checks on one trained model over the held-out set; returns
/// the library's figures.
LibraryQuality CheckQualityOf(const std::string& label, const Inputs& inputs,
                              lighttr::fl::RecoveryModel* model,
                              const Recovery& recovery, Report* report) {
  const lighttr::eval::RecoveryMetrics metrics =
      lighttr::eval::EvaluateRecovery(model, inputs.env->network(),
                                      inputs.held_out);
  LibraryQuality library;
  library.recall = metrics.recall;
  library.mae_m = metrics.mae_km * 1000.0;
  if (metrics.recovered_points != recovery.missing_points) {
    report->Fail(label + ": EvaluateRecovery scored " +
                 std::to_string(metrics.recovered_points) + " points, " +
                 std::to_string(recovery.missing_points) + " are missing");
  }
  CheckQuality(label, recovery, library, report);
  return library;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The samples behind a median, on stderr (stdout ends with the result).
void PrintSamples(const char* name, const std::vector<double>& samples) {
  std::string line;
  for (double sample : samples) line += " " + std::to_string(sample);
  std::fprintf(stderr, "samples %s:%s\n", name, line.c_str());
}

void PrintHiddenTruth(const std::string& what, const std::vector<int>& ids,
                      size_t total) {
  std::printf("hidden-truth %s: %zu of %zu outputs changed; ids %s\n",
              what.c_str(), ids.size(), total, JoinIds(ids).c_str());
}

/// Missing points recovered per second over the whole held-out set,
/// each trajectory timed at the median of its passes: one slow pass
/// (a burst of machine noise) does not move the figure.
double RecoverRate(const std::vector<Recovery>& passes) {
  if (passes.empty()) return 0.0;
  double seconds = 0.0;
  for (size_t i = 0; i < passes.front().trajectory_seconds.size(); ++i) {
    std::vector<double> samples;
    for (const Recovery& pass : passes) {
      samples.push_back(pass.trajectory_seconds[i]);
    }
    seconds += Median(samples);
  }
  return static_cast<double>(passes.front().missing_points) / seconds;
}

/// --trace 0: repeated whole rounds of the workload's operations for
/// `seconds`, end-to-end metrics as medians.
void RunUntraced(const Spec& spec, const Args& args, Report* report) {
  const HiddenTruthProbe probe = BuildHiddenTruthProbe();

  // Whole rounds of operations until the next round would end more than
  // half a round past --seconds (at least one round). A round is
  // spec.setups set-ups, a training (not on recover-only workloads), one
  // recovery pass over the held-out set and one hidden-truth probe
  // round. Spreading every kind of sample over the whole run keeps a
  // slow phase of the machine from landing on one kind only.
  std::vector<double> setup_times;
  std::vector<double> train_times;
  std::vector<Recovery> passes;
  std::string first_print;
  std::vector<int> probe_changed;
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<TrainedRun> trained;
  const TrainedRun* measured = nullptr;
  const double start = NowSeconds();
  for (int round = 1;; ++round) {
    for (int i = 0; i < spec.setups; ++i) {
      trained.reset();  // one set-up and one trained run alive at a time
      inputs.reset();
      inputs = Setup(spec, args.seed, nullptr);
      setup_times.push_back(inputs->setup_seconds);
    }
    measured = inputs->pretrained.get();
    if (!spec.recover_only) {
      trained = Train(*inputs, nullptr);
      measured = trained.get();
      report->CountOps(static_cast<int64_t>(measured->result.history.size()),
                       0);
    }
    train_times.push_back(measured->train_seconds);
    passes.push_back(RecoverAll(measured->model(), inputs->env->network(),
                                inputs->held_out));
    report->CountOps(static_cast<int64_t>(inputs->held_out.size()), 0);
    probe_changed = RunHiddenTruthProbe(probe, report);

    if (round == 1) {
      first_print = Fingerprint(measured->model());
    } else {
      if (Fingerprint(measured->model()) != first_print) {
        report->Fail("repeated training produced a different model");
      }
      if (passes.back().outputs != passes.front().outputs) {
        report->Fail("repeated recovery produced different outputs");
      }
      passes.back().outputs.clear();  // only the first pass is scored
    }
    const double elapsed = NowSeconds() - start;
    if (elapsed + 0.5 * elapsed / round > args.seconds) break;
  }

  PrintHiddenTruth("probe", probe_changed, probe.inputs->held_out.size());
  const lighttr::fl::FaultStats& faults = measured->result.faults;
  std::fprintf(stderr, "resilience: %s | rollbacks %lld | diverged %lld\n",
               lighttr::core::SummarizeResilience(measured->result).c_str(),
               static_cast<long long>(faults.rollbacks),
               static_cast<long long>(faults.diverged_rounds));
  CheckTraining(spec.name, *inputs, *measured, report);
  const LibraryQuality quality = CheckQualityOf(
      spec.name, *inputs, measured->model(), passes.front(), report);

  PrintSamples("setup_s", setup_times);
  PrintSamples("train_s", train_times);
  std::vector<double> pass_times;
  for (const Recovery& pass : passes) pass_times.push_back(pass.seconds);
  PrintSamples("recover_pass_s", pass_times);
  report->Set("setup_s", Median(setup_times), "s");
  report->Set("train_s", Median(train_times), "s");
  report->Set("recover_points_per_s", RecoverRate(passes), "1/s");
  report->Set("recall", quality.recall, "ratio");
  report->Set("mae_m", quality.mae_m, "m");
  report->Set("comm_bytes",
              static_cast<double>(measured->result.comm.TotalBytes()),
              "bytes");
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

/// --trace 1: one untraced and one traced run of the same inputs, then
/// the layer probes.
void RunTraced(const Spec& spec, const Args& args, Report* report) {
  const HiddenTruthProbe probe = BuildHiddenTruthProbe();
  const std::unique_ptr<Inputs> plain_box = Setup(spec, args.seed, nullptr);
  const Inputs& plain = *plain_box;
  std::unique_ptr<TrainedRun> plain_run;
  if (!spec.recover_only) plain_run = Train(plain, nullptr);
  const TrainedRun* untraced =
      spec.recover_only ? plain.pretrained.get() : plain_run.get();
  report->CountOps(
      spec.recover_only ? 0 : static_cast<int64_t>(spec.rounds), 0);
  const Recovery untraced_recovery =
      RecoverAll(untraced->model(), plain.env->network(), plain.held_out);
  report->CountOps(static_cast<int64_t>(plain.held_out.size()), 0);
  RunHiddenTruthProbe(probe, report);

  SpanLog spans;
  const double traced_start = NowSeconds();
  const std::unique_ptr<Inputs> box = Setup(spec, args.seed, &spans);
  const Inputs& inputs = *box;
  std::unique_ptr<TrainedRun> traced_run;
  if (!spec.recover_only) traced_run = Train(inputs, &spans);
  const TrainedRun* traced =
      spec.recover_only ? inputs.pretrained.get() : traced_run.get();
  report->CountOps(
      spec.recover_only ? 0 : static_cast<int64_t>(spec.rounds), 0);
  Recovery recovery;
  {
    ScopedSpan span(&spans, "eval.recover");
    recovery = RecoverAll(traced->model(), inputs.env->network(),
                          inputs.held_out);
  }
  const double traced_end = NowSeconds();
  report->CountOps(static_cast<int64_t>(inputs.held_out.size()), 0);
  RunHiddenTruthProbe(probe, report);

  if (Fingerprint(traced->model()) != Fingerprint(untraced->model())) {
    report->Fail("traced model differs bitwise from the untraced model");
  }
  if (recovery.outputs != untraced_recovery.outputs) {
    report->Fail("traced recovery outputs differ from the untraced run's");
  }
  CheckTraining(spec.name + " (traced)", inputs, *traced, report);
  const double coverage = spans.TopLevelCovered(traced_start, traced_end) /
                          (traced_end - traced_start);
  if (coverage < 0.95) {
    report->Fail("top-level spans cover only " + std::to_string(coverage) +
                 " of the traced run");
  }
  report->Set("trace.overhead_s",
              traced->train_seconds - untraced->train_seconds, "s");
  report->Set("trace.span_coverage", coverage, "ratio");
  // Seed-dependent findings, reported rather than counted as failed
  // operations (their count varies with the seed): held-out outputs that
  // change when the missing ground truth is replaced, and the recall of
  // an untrained replica from the same factory and seed.
  const std::vector<int> changed =
      HiddenTruthChanges(traced->model(), inputs.held_out, recovery.outputs);
  PrintHiddenTruth(spec.name, changed, inputs.held_out.size());
  report->Set("eval.hidden_truth_changes", static_cast<double>(changed.size()),
              "count");
  lighttr::Rng rng(FederatedOptions(spec, inputs.seed).seed);
  auto untrained = Factory(inputs)(&rng);
  const double untrained_recall = RecallOf(
      RecoverAll(untrained.get(), inputs.env->network(), inputs.held_out));
  const double trained_recall = RecallOf(recovery);
  std::printf("recall: trained %.4f, untrained replica %.4f\n", trained_recall,
              untrained_recall);
  report->Set("eval.recall_gain_over_untrained",
              trained_recall - untrained_recall, "ratio");
  RunLayerProbes(inputs, *traced, spans, recovery, report);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lighttr_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const perfbench::Spec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  lighttr::SetGlobalThreadCount(spec->threads);
  perfbench::Report report;
  if (args.trace) {
    perfbench::RunTraced(*spec, args, &report);
  } else {
    perfbench::RunUntraced(*spec, args, &report);
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}

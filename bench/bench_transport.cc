// Hostile-network sweep for the wire-level transport: the same federated
// LightTR run over a grid of channel fault models — clean, drop-heavy,
// corrupt-heavy, delay-heavy, and a combined storm — measuring wall
// time, exact wire traffic, retry/timeout/dedup telemetry, and goodput
// (the clean run's wire bytes over the faulted run's: how much extra
// traffic the weather extracted).
//
// Expected shape: every faulted run still completes all rounds (the
// retry budget rides out the weather) and lands on a finite model;
// goodput degrades as fault rates rise but never exceeds 1. A
// clean-channel section gates the transport's overhead directly: a
// standalone replay of the clean run's link work — per round one
// pull-reply encode, per contact one ReliableLink pull plus one raw-f64
// push at the real model size — must reproduce the run's exact wire
// bytes and cost no more than 5% of the clean run's wall time (min of 3
// each). The clean run must also show zero network incidents.
//
// Emits a human table plus BENCH_transport.json, and exits non-zero if
// any gate fails. --smoke shrinks the workload to a tier-1 budget; every
// gate still applies.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "bench/bench_output.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "eval/harness.h"
#include "fl/comm_stats.h"
#include "fl/federated_trainer.h"
#include "fl/transport/link.h"
#include "nn/parameter.h"

namespace {

using namespace lighttr;

struct FaultCase {
  std::string name;
  fl::transport::ChannelFaultConfig channel;
};

std::vector<FaultCase> FaultGrid() {
  std::vector<FaultCase> grid;
  grid.push_back({"clean", {}});
  {
    fl::transport::ChannelFaultConfig c;
    c.drop_rate = 0.25;
    grid.push_back({"drop25", c});
  }
  {
    fl::transport::ChannelFaultConfig c;
    c.corrupt_rate = 0.25;
    grid.push_back({"corrupt25", c});
  }
  {
    fl::transport::ChannelFaultConfig c;
    c.delay_rate = 0.2;
    grid.push_back({"delay20", c});
  }
  {
    fl::transport::ChannelFaultConfig c;
    c.drop_rate = 0.15;
    c.corrupt_rate = 0.15;
    c.duplicate_rate = 0.1;
    c.reorder_rate = 0.1;
    c.delay_rate = 0.1;
    grid.push_back({"storm", c});
  }
  return grid;
}

struct RunOutcome {
  fl::FederatedRunResult run;
  std::string params_blob;
  std::vector<nn::Scalar> params_flat;
  double seconds = 0.0;
  bool finite = false;
};

// The transport's share of a clean run, replayed without training: per
// round the coordinator encodes the pull reply once; per contact a fresh
// clean-channel ReliableLink pulls the model and pushes a raw-f64 update
// of the real size. `traffic` receives the summed link stats, so the
// caller can check the replay moved exactly the run's bytes. Returns the
// wall seconds, or -1 if any exchange failed.
double ReplayLinkSeconds(const RunOutcome& clean,
                         fl::transport::LinkStats* traffic) {
  namespace transport = fl::transport;
  const transport::TransportConfig config;
  *traffic = transport::LinkStats{};
  bool ok = true;
  Stopwatch watch;
  for (const fl::RoundRecord& record : clean.run.history) {
    transport::ModelPullReply reply;
    reply.round = record.round;
    reply.model_blob = clean.params_blob;
    const std::string pull_reply_frame =
        transport::EncodeFrame(transport::FrameType::kModelPullReply,
                               transport::EncodeModelPullReply(reply));
    for (int client = 0; client < record.sampled; ++client) {
      transport::ReliableLink link(config.channel, config.retry, record.round,
                                   client, &pull_reply_frame, nullptr);
      transport::UpdatePush push;
      push.round = record.round;
      push.client_id = client;
      push.msg_id = transport::PushMsgId(record.round, client);
      push.kind = transport::PayloadKind::kRawF64;
      push.raw = clean.params_flat;
      ok = ok && link.PullModelBlob().ok() && link.PushUpdate(push).ok();
      traffic->Add(link.stats());
    }
  }
  const double seconds = watch.ElapsedSeconds();
  return ok ? seconds : -1.0;
}

std::string JsonRow(const std::string& section, const RunOutcome& outcome,
                    double goodput) {
  const fl::FaultStats& f = outcome.run.faults;
  char buffer[448];
  std::snprintf(
      buffer, sizeof(buffer),
      "  {\"section\": \"%s\", \"seconds\": %.3f, \"rounds\": %lld, "
      "\"uplink_bytes\": %lld, \"downlink_bytes\": %lld, "
      "\"messages\": %lld, \"net_retries\": %lld, \"net_timeouts\": %lld, "
      "\"net_crc_drops\": %lld, \"net_dedup_drops\": %lld, "
      "\"net_late_drops\": %lld, \"net_lost\": %lld, \"goodput\": %.4f, "
      "\"finite\": %d}",
      section.c_str(), outcome.seconds,
      static_cast<long long>(outcome.run.comm.rounds),
      static_cast<long long>(outcome.run.comm.bytes_uplink),
      static_cast<long long>(outcome.run.comm.bytes_downlink),
      static_cast<long long>(outcome.run.comm.messages),
      static_cast<long long>(f.net_retries),
      static_cast<long long>(f.net_timeouts),
      static_cast<long long>(f.net_crc_drops),
      static_cast<long long>(f.net_dedup_drops),
      static_cast<long long>(f.net_late_drops),
      static_cast<long long>(f.net_lost), goodput, outcome.finite ? 1 : 0);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  if (args.error) return 2;
  eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  if (args.smoke) {
    // Tier-1 budget: a few clients and rounds on a small grid. The
    // gates hold at any size, so they all still apply.
    scale.name = "smoke";
    scale.grid_rows = 6;
    scale.grid_cols = 6;
    scale.num_clients = 4;
    scale.rounds = 2;
  }
  std::printf("Transport fault sweep (scale=%s)\n", scale.name.c_str());

  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::TdriveLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 11);

  const auto run_once = [&](const fl::transport::ChannelFaultConfig& channel) {
    eval::MethodRunOptions base = eval::DefaultRunOptions(scale);
    fl::FederatedTrainerOptions options = base.fed;
    options.transport.channel = channel;
    // Serial on purpose: traffic and telemetry do not depend on the
    // thread count, and the overhead gate below compares serial link
    // work against serial training, a ratio that holds steady on a
    // loaded machine where parallel wall times do not.
    options.threads = 1;
    // Generous budget: the sweep measures cost, not quorum collapse.
    options.transport.retry.max_retries = 64;
    fl::FederatedTrainer trainer(
        baselines::MakeFactory(baselines::ModelKind::kLightTr, &env->encoder()),
        &clients, options);
    Stopwatch watch;
    RunOutcome outcome;
    outcome.run = trainer.Run();
    outcome.seconds = watch.ElapsedSeconds();
    outcome.params_blob = trainer.global_model()->params().Serialize();
    outcome.params_flat = trainer.global_model()->params().Flatten();
    outcome.finite = true;
    for (const nn::Scalar v : outcome.params_flat) {
      if (!std::isfinite(v)) outcome.finite = false;
    }
    return outcome;
  };

  TablePrinter table({"Section", "Wall(s)", "Uplink", "Downlink", "Retries",
                      "Timeouts", "CrcDrops", "Dedup", "Lost", "Goodput"});
  std::vector<std::string> json_rows;
  bool failed = false;

  // ---- Clean-channel gate: the link work's share of the clean run.
  RunOutcome clean = run_once({});
  for (int i = 0; i < 2; ++i) {
    RunOutcome next = run_once({});
    if (next.seconds < clean.seconds) clean = std::move(next);
  }
  fl::transport::LinkStats replayed;
  double replay_seconds = 0.0;
  bool replay_ok = true;
  for (int i = 0; i < 3; ++i) {
    const double seconds = ReplayLinkSeconds(clean, &replayed);
    replay_ok = replay_ok && seconds >= 0.0;
    replay_seconds = i == 0 ? seconds : std::min(replay_seconds, seconds);
  }
  std::printf("clean gate: link replay %.4fs vs clean run %.3fs (%.2f%%)\n",
              replay_seconds, clean.seconds,
              clean.seconds > 0.0 ? replay_seconds / clean.seconds * 100.0
                                  : 0.0);
  if (!replay_ok) {
    std::printf("ERROR: a clean-channel link exchange failed\n");
    failed = true;
  }
  if (replayed.uplink_bytes != clean.run.comm.bytes_uplink ||
      replayed.downlink_bytes != clean.run.comm.bytes_downlink) {
    std::printf("ERROR: link replay moved %lld/%lld bytes up/down, the clean "
                "run %lld/%lld\n",
                static_cast<long long>(replayed.uplink_bytes),
                static_cast<long long>(replayed.downlink_bytes),
                static_cast<long long>(clean.run.comm.bytes_uplink),
                static_cast<long long>(clean.run.comm.bytes_downlink));
    failed = true;
  }
  if (replay_seconds > clean.seconds * 0.05) {
    std::printf("ERROR: clean-channel link work exceeds 5%% of the run\n");
    failed = true;
  }
  for (const fl::FaultCounter& counter : fl::kFaultCounters) {
    if (counter.tail == fl::CounterTail::kTransport &&
        clean.run.faults.*counter.total != 0) {
      std::printf("ERROR: the clean channel recorded %s = %lld\n",
                  counter.name,
                  static_cast<long long>(clean.run.faults.*counter.total));
      failed = true;
    }
  }

  // ---- Fault grid.
  const int64_t clean_wire = clean.run.comm.bytes_uplink +
                             clean.run.comm.bytes_downlink;
  for (const FaultCase& fault_case : FaultGrid()) {
    const RunOutcome outcome =
        fault_case.name == "clean" ? clean : run_once(fault_case.channel);
    const int64_t wire =
        outcome.run.comm.bytes_uplink + outcome.run.comm.bytes_downlink;
    const double goodput =
        wire > 0 ? static_cast<double>(clean_wire) / static_cast<double>(wire)
                 : 0.0;
    const fl::FaultStats& f = outcome.run.faults;
    table.AddRow({fault_case.name, TablePrinter::Fmt(outcome.seconds, 2),
                  std::to_string(outcome.run.comm.bytes_uplink),
                  std::to_string(outcome.run.comm.bytes_downlink),
                  std::to_string(f.net_retries),
                  std::to_string(f.net_timeouts),
                  std::to_string(f.net_crc_drops),
                  std::to_string(f.net_dedup_drops),
                  std::to_string(f.net_lost),
                  TablePrinter::Fmt(goodput)});
    json_rows.push_back(JsonRow(fault_case.name, outcome, goodput));
    std::printf("%s: %.2fs wire=%lld retries=%lld timeouts=%lld "
                "crc_drops=%lld lost=%lld goodput=%.3f\n",
                fault_case.name.c_str(), outcome.seconds,
                static_cast<long long>(wire),
                static_cast<long long>(f.net_retries),
                static_cast<long long>(f.net_timeouts),
                static_cast<long long>(f.net_crc_drops),
                static_cast<long long>(f.net_lost), goodput);
    std::fflush(stdout);
    if (!outcome.finite) {
      std::printf("ERROR: %s produced a non-finite model\n",
                  fault_case.name.c_str());
      failed = true;
    }
    if (goodput > 1.0) {
      std::printf("ERROR: %s moved fewer bytes than the clean channel\n",
                  fault_case.name.c_str());
      failed = true;
    }
    if (outcome.run.comm.rounds != clean.run.comm.rounds) {
      std::printf("ERROR: %s did not complete all rounds\n",
                  fault_case.name.c_str());
      failed = true;
    }
  }

  std::printf("%s", table.ToString().c_str());
  std::string json = "[\n";
  for (size_t i = 0; i < json_rows.size(); ++i) {
    json += json_rows[i];
    json += (i + 1 < json_rows.size()) ? ",\n" : "\n";
  }
  json += "]\n";
  if (!bench::WriteArtifact(args, "BENCH_transport.json", json) ||
      !bench::WriteArtifact(args, "bench_transport.csv", table.ToCsv())) {
    return 1;
  }

  return failed ? 1 : 0;
}

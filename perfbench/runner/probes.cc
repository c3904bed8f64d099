#include "probes.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "fl/aggregation.h"
#include "fl/run_state.h"
#include "fl/transport/wire.h"
#include "geo/geo_point.h"
#include "lighttr/meta_local_update.h"
#include "lighttr/teacher_training.h"
#include "nn/optimizer.h"
#include "roadnet/shortest_path.h"

namespace perfbench {

namespace {

using lighttr::traj::IncompleteTrajectory;

/// Shortest time a throughput probe measures for; short passes repeat.
constexpr double kMinProbeSeconds = 0.2;

/// Runs `pass` until kMinProbeSeconds have elapsed (at least once) and
/// returns the mean seconds per pass.
template <typename Pass>
double SecondsPerPass(Pass&& pass) {
  const double start = NowSeconds();
  int passes = 0;
  double elapsed = 0.0;
  do {
    pass();
    ++passes;
    elapsed = NowSeconds() - start;
  } while (elapsed < kMinProbeSeconds);
  return elapsed / passes;
}

constexpr double kMegabyte = 1e6;

/// The trajectories a workload's hot path works on: the training
/// splits, or for recover-tdrive the recovery set.
std::vector<const IncompleteTrajectory*> ProbeSet(const Inputs& inputs) {
  std::vector<const IncompleteTrajectory*> set;
  if (inputs.spec->recover_only) {
    for (const auto& trajectory : inputs.held_out) set.push_back(&trajectory);
  } else {
    for (const auto& client : inputs.clients) {
      for (const auto& trajectory : client.train) set.push_back(&trajectory);
    }
  }
  return set;
}

/// A missing step and the observed anchors around it.
struct Gap {
  const IncompleteTrajectory* trajectory = nullptr;
  size_t step = 0;
  size_t prev = 0;
  size_t next = 0;
};

std::vector<Gap> MissingSteps(
    const std::vector<const IncompleteTrajectory*>& set) {
  std::vector<Gap> gaps;
  for (const IncompleteTrajectory* trajectory : set) {
    const std::vector<size_t> observed = trajectory->ObservedIndices();
    for (size_t k = 0; k + 1 < observed.size(); ++k) {
      for (size_t t = observed[k] + 1; t < observed[k + 1]; ++t) {
        gaps.push_back({trajectory, t, observed[k], observed[k + 1]});
      }
    }
  }
  return gaps;
}

void RoadnetProbes(const Inputs& inputs, const SpanLog& spans,
                   const std::vector<Gap>& gaps,
                   const std::vector<const IncompleteTrajectory*>& set,
                   Report* report) {
  const auto& network = inputs.env->network();
  const auto& encoder = inputs.env->encoder();
  report->Set("roadnet.build_s", spans.Total("roadnet.build"), "s");

  // The spatial queries the encoder issues: the anchor-interpolated
  // estimate of each missing step, at the gap-widened radius.
  struct Query {
    lighttr::geo::GeoPoint point;
    double radius_m = 0.0;
  };
  std::vector<Query> queries;
  queries.reserve(gaps.size());
  for (const Gap& gap : gaps) {
    const auto& points = gap.trajectory->ground_truth.points;
    const double gap_m = lighttr::geo::HaversineMeters(
        network.PositionToPoint(points[gap.prev].position),
        network.PositionToPoint(points[gap.next].position));
    queries.push_back(
        {encoder.InterpolatedPoint(*gap.trajectory, gap.step),
         std::max(encoder.options().candidate_radius_m,
                  encoder.options().radius_gap_factor * gap_m)});
  }
  size_t found = 0;
  const double nearby_s = SecondsPerPass([&] {
    for (const Query& query : queries) {
      found += inputs.env->index().Nearby(query.point, query.radius_m).size();
    }
  });
  if (found == 0 && !queries.empty()) report->Fail("Nearby found nothing");
  report->Set("roadnet.nearby_per_s",
              static_cast<double>(queries.size()) / nearby_s, "1/s");

  // The routes between consecutive observed anchors.
  std::vector<std::pair<int32_t, int32_t>> pairs;
  for (const IncompleteTrajectory* trajectory : set) {
    const std::vector<size_t> observed = trajectory->ObservedIndices();
    for (size_t k = 0; k + 1 < observed.size(); ++k) {
      if (observed[k + 1] == observed[k] + 1) continue;
      const auto& points = trajectory->ground_truth.points;
      pairs.emplace_back(
          network.segment(points[observed[k]].position.segment).to,
          network.segment(points[observed[k + 1]].position.segment).from);
    }
  }
  size_t routed = 0;
  const double route_s = SecondsPerPass([&] {
    for (const auto& [from, to] : pairs) {
      if (lighttr::roadnet::VertexRoute(network, from, to).ok()) ++routed;
    }
  });
  if (routed == 0 && !pairs.empty()) report->Fail("VertexRoute found nothing");
  report->Set("roadnet.routes_per_s",
              static_cast<double>(pairs.size()) / route_s, "1/s");
}

void TrajProbes(const Inputs& inputs, const SpanLog& spans,
                const std::vector<Gap>& gaps,
                const std::vector<const IncompleteTrajectory*>& set,
                Report* report) {
  const auto& encoder = inputs.env->encoder();
  report->Set("traj.workload_s", spans.Total("traj.workload"), "s");

  int64_t candidates = 0;
  const double candidates_s = SecondsPerPass([&] {
    candidates = 0;
    for (const Gap& gap : gaps) {
      candidates += static_cast<int64_t>(
          encoder.CandidatesForStep(*gap.trajectory, gap.step).segments.size());
    }
  });
  report->Set("traj.candidates_per_s",
              static_cast<double>(gaps.size()) / candidates_s, "1/s");
  report->Set("traj.candidates_per_step",
              gaps.empty() ? 0.0
                           : static_cast<double>(candidates) /
                                 static_cast<double>(gaps.size()),
              "count");

  size_t rows = 0;
  const double encode_s = SecondsPerPass([&] {
    for (const IncompleteTrajectory* trajectory : set) {
      rows += encoder.EncodeInputs(*trajectory).rows();
    }
  });
  if (rows == 0 && !set.empty()) report->Fail("EncodeInputs encoded nothing");
  report->Set("traj.encode_inputs_per_s",
              static_cast<double>(set.size()) / encode_s, "1/s");

  // Held-out missing steps whose true segment the spatial search missed.
  int64_t out_of_range = 0;
  for (const auto& trajectory : inputs.held_out) {
    for (size_t t = 0; t < trajectory.size(); ++t) {
      if (trajectory.observed[t]) continue;
      if (!encoder.CandidatesForStep(trajectory, t).target_in_range) {
        ++out_of_range;
      }
    }
  }
  report->Set("traj.out_of_range_steps", static_cast<double>(out_of_range),
              "count");
}

void NnProbes(const Inputs& inputs, const TrainedRun& traced,
              const std::vector<const IncompleteTrajectory*>& set,
              const Recovery& recovery, Report* report) {
  lighttr::Rng init(inputs.seed + 11);
  auto replica = Factory(inputs)(&init);
  lighttr::Rng dropout(inputs.seed + 13);
  const double fb_s = SecondsPerPass([&] {
    for (const IncompleteTrajectory* trajectory : set) {
      replica->params().ZeroGrads();
      lighttr::fl::ForwardResult forward =
          replica->Forward(*trajectory, /*training=*/true, &dropout);
      forward.loss.Backward();
    }
  });
  report->Set("nn.forward_backward_per_s",
              static_cast<double>(set.size()) / fb_s, "1/s");

  const double gflop = static_cast<double>(traced.train_flops) / 1e9;
  report->Set("nn.train_gflop", gflop, "GFLOP");
  report->Set("nn.gflops", gflop / traced.train_seconds, "GFLOP/s");

  // Adam steps over the replica's parameters, gradients left by the
  // last backward pass.
  lighttr::nn::AdamOptimizer adam(3e-3);
  const double step_s =
      SecondsPerPass([&] { adam.Step(&replica->params()); });
  report->Set("nn.adam_scalars_per_s",
              static_cast<double>(replica->params().NumScalars()) / step_s,
              "1/s");

  report->Set("nn.recover_per_s",
              static_cast<double>(recovery.outputs.size()) / recovery.seconds,
              "1/s");
}

void LighttrProbes(const Inputs& inputs, const TrainedRun& traced,
                   const SpanLog& spans, Report* report) {
  if (inputs.spec->lighttr) {
    report->Set("lighttr.teacher_s", spans.Total("lighttr.teacher"), "s");
    report->Set("lighttr.local_update_busy_s", traced.timing->BusySeconds(),
                "s");
    return;
  }
  // A plain-FedAvg workload runs neither algorithm; replay both on its
  // clients: Algorithm 1 once, then one Algorithm 2 update per client.
  const lighttr::core::LightTrOptions options =
      PipelineOptions(*inputs.spec, inputs.seed);
  const lighttr::fl::ModelFactory factory = Factory(inputs);
  double start = NowSeconds();
  auto teacher =
      lighttr::core::TrainTeacher(factory, inputs.clients, options.teacher);
  report->Set("lighttr.teacher_s", NowSeconds() - start, "s");

  lighttr::core::MetaLocalUpdate meta(teacher.get(), options.meta);
  lighttr::Rng rng(inputs.seed + 17);
  double busy = 0.0;
  for (size_t i = 0; i < inputs.clients.size(); ++i) {
    auto model = factory(&rng);
    lighttr::nn::AdamOptimizer optimizer(
        static_cast<lighttr::nn::Scalar>(options.federated.learning_rate));
    start = NowSeconds();
    meta.Update(static_cast<int>(i), model.get(), &optimizer,
                inputs.clients[i], /*epochs=*/1, &rng);
    busy += NowSeconds() - start;
  }
  report->Set("lighttr.local_update_busy_s", busy, "s");
}

/// A snapshot of the run: the newest one the hardened server wrote, or
/// one assembled from the run's public results elsewhere.
lighttr::fl::ServerRunState SnapshotOf(const Inputs& inputs,
                                       const TrainedRun& traced,
                                       Report* report) {
  if (inputs.spec->hardened_server) {
    auto state = lighttr::fl::LoadRunState(
        traced.durable_fs(),
        lighttr::fl::SnapshotPath(DurableDir(), inputs.spec->rounds));
    if (state.ok()) return std::move(state).value();
    report->Fail("traced run's newest snapshot does not load");
  }
  lighttr::fl::ServerRunState state;
  state.round = inputs.spec->rounds;
  state.comm = traced.result.comm;
  state.faults = traced.result.faults;
  state.global_params_blob = Fingerprint(traced.model());
  return state;
}

void FlProbes(const Inputs& inputs, const TrainedRun& traced,
              const SpanLog& spans, const lighttr::fl::ServerRunState& state,
              Report* report) {
  const Spec& spec = *inputs.spec;
  const std::vector<Interval> updates = traced.timing->intervals();
  const double busy = traced.timing->BusySeconds();
  Interval run_span;
  for (const SpanLog::Span& span : spans.spans()) {
    if (span.name == "fl.run") run_span = span.interval;
  }
  const double run_s = run_span.end - run_span.start;
  const double covered =
      CoveredSeconds(updates, run_span.start, run_span.end);
  report->Set("fl.local_update_busy_s", busy, "s");
  report->Set("fl.local_updates", static_cast<double>(updates.size()),
              "count");
  report->Set("fl.server_self_s", run_s - covered, "s");
  report->Set("fl.executor_idle_share",
              1.0 - busy / (static_cast<double>(spec.threads) * run_s),
              "ratio");
  report->Set("fl.round_s", run_s / static_cast<double>(spec.rounds), "s");
  report->Set("fl.net_retries",
              static_cast<double>(traced.result.faults.net_retries), "count");

  // Wire codec: every client's final update as a push frame, plus the
  // global model's pull reply.
  namespace wire = lighttr::fl::transport;
  std::vector<std::vector<lighttr::nn::Scalar>> uploads;
  for (int i = 0; i < traced.trainer->num_clients(); ++i) {
    uploads.push_back(traced.trainer->client_model(i)->params().Flatten());
  }
  wire::ModelPullReply pull;
  pull.round = spec.rounds;
  pull.model_blob = traced.model()->params().Serialize();
  std::vector<std::string> frames;
  size_t frame_bytes = 0;
  const double encode_s = SecondsPerPass([&] {
    frames.clear();
    frame_bytes = 0;
    frames.push_back(wire::EncodeFrame(wire::FrameType::kModelPullReply,
                                       wire::EncodeModelPullReply(pull)));
    for (size_t i = 0; i < uploads.size(); ++i) {
      wire::UpdatePush push;
      push.round = spec.rounds;
      push.client_id = static_cast<int32_t>(i);
      push.msg_id = i + 1;
      push.raw = uploads[i];
      frames.push_back(wire::EncodeFrame(wire::FrameType::kUpdatePush,
                                         wire::EncodeUpdatePush(push)));
    }
    for (const std::string& frame : frames) frame_bytes += frame.size();
  });
  report->Set("fl.wire_encode_mb_per_s",
              static_cast<double>(frame_bytes) / kMegabyte / encode_s, "MB/s");
  bool decoded_ok = true;
  const double decode_s = SecondsPerPass([&] {
    for (size_t f = 0; f < frames.size(); ++f) {
      wire::Frame frame;
      if (!wire::DecodeFrame(frames[f], &frame).ok()) {
        decoded_ok = false;
        continue;
      }
      if (f == 0) {
        wire::ModelPullReply reply;
        decoded_ok &= wire::DecodeModelPullReply(frame.payload, &reply).ok() &&
                      reply.model_blob == pull.model_blob;
      } else {
        wire::UpdatePush push;
        decoded_ok &= wire::DecodeUpdatePush(frame.payload, &push).ok() &&
                      push.raw == uploads[f - 1];
      }
    }
  });
  if (!decoded_ok) report->Fail("wire frames do not decode to what was sent");
  report->Set("fl.wire_decode_mb_per_s",
              static_cast<double>(frame_bytes) / kMegabyte / decode_s, "MB/s");

  // Aggregation of one cohort of uploads per round with the workload's
  // rule, against the trained global model as reference.
  const lighttr::fl::FederatedTrainerOptions fed =
      FederatedOptions(spec, inputs.seed);
  const std::vector<lighttr::nn::Scalar> reference =
      traced.model()->params().Flatten();
  double aggregate_s = 0.0;
  for (int r = 0; r < spec.rounds; ++r) {
    std::vector<uint8_t> suspected;
    const double start = NowSeconds();
    auto aggregate = lighttr::fl::AggregateFlat(
        uploads, fed.tolerance.aggregator, &reference, 0.0, &suspected);
    aggregate_s += NowSeconds() - start;
    if (!aggregate.ok()) report->Fail("aggregation of the cohort failed");
  }
  report->Set("fl.aggregate_s", aggregate_s, "s");

  std::string encoded;
  const double snap_encode_s =
      SecondsPerPass([&] { encoded = lighttr::fl::EncodeRunState(state); });
  bool snapshot_ok = true;
  const double snap_decode_s = SecondsPerPass([&] {
    lighttr::fl::ServerRunState decoded;
    snapshot_ok &= lighttr::fl::DecodeRunState(encoded, &decoded).ok() &&
                   decoded.global_params_blob == state.global_params_blob;
  });
  if (!snapshot_ok) report->Fail("snapshot does not round-trip");
  const double snapshot_mb = static_cast<double>(encoded.size()) / kMegabyte;
  report->Set("fl.snapshot_encode_mb_per_s", snapshot_mb / snap_encode_s,
              "MB/s");
  report->Set("fl.snapshot_decode_mb_per_s", snapshot_mb / snap_decode_s,
              "MB/s");
  report->Set("fl.snapshot_bytes", static_cast<double>(encoded.size()),
              "bytes");
}

void CommonProbes(const TrainedRun& traced,
                  const lighttr::fl::ServerRunState& state, Report* report) {
  if (traced.counting_fs != nullptr) {
    report->Set("common.env_write_s", traced.counting_fs->write_seconds(), "s");
    report->Set("common.env_bytes_written",
                static_cast<double>(traced.counting_fs->bytes_written()),
                "bytes");
  } else {
    // No durability in this workload: replay what per-round persistence
    // of this run would write (one snapshot and journal line per round).
    lighttr::FaultyFileSystem memory;
    CountingFileSystem fs(&memory);
    bool ok = true;
    for (const auto& record : traced.result.history) {
      ok &= lighttr::fl::SaveRunState(
                &fs, lighttr::fl::SnapshotPath(DurableDir(), record.round),
                state)
                .ok();
      ok &= lighttr::fl::AppendJournalRecord(&fs, DurableDir(), record).ok();
    }
    ok &= fs.SyncAll().ok();
    if (!ok) report->Fail("persistence replay failed");
    report->Set("common.env_write_s", fs.write_seconds(), "s");
    report->Set("common.env_bytes_written",
                static_cast<double>(fs.bytes_written()), "bytes");
  }
  const std::string bytes = lighttr::fl::EncodeRunState(state);
  const uint32_t expected = lighttr::Crc32(bytes);
  bool stable = true;
  const double crc_s =
      SecondsPerPass([&] { stable &= lighttr::Crc32(bytes) == expected; });
  if (!stable) report->Fail("CRC-32 of the same bytes differs between passes");
  report->Set("common.crc32_mb_per_s",
              static_cast<double>(bytes.size()) / kMegabyte / crc_s, "MB/s");
}

}  // namespace

void RunLayerProbes(const Inputs& inputs, const TrainedRun& traced,
                    const SpanLog& spans, const Recovery& recovery,
                    Report* report) {
  const std::vector<const IncompleteTrajectory*> set = ProbeSet(inputs);
  const std::vector<Gap> gaps = MissingSteps(set);
  RoadnetProbes(inputs, spans, gaps, set, report);
  TrajProbes(inputs, spans, gaps, set, report);
  NnProbes(inputs, traced, set, recovery, report);
  LighttrProbes(inputs, traced, spans, report);
  const lighttr::fl::ServerRunState state = SnapshotOf(inputs, traced, report);
  FlProbes(inputs, traced, spans, state, report);
  CommonProbes(traced, state, report);
}

}  // namespace perfbench

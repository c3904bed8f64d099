// Telemetry of the federated simulator: communication accounting (paper
// Sec. V-B3 ties communication cost to parameter count; we record exact
// serialized bytes per round and direction), the fault counters and
// their one schema table, and the per-round record the journal persists.
#ifndef LIGHTTR_FL_COMM_STATS_H_
#define LIGHTTR_FL_COMM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace lighttr::fl {

/// Accumulated fault-tolerance telemetry of one federated run: what the
/// fault layer injected and what the server did about it. Every int64
/// field has a row in kFaultCounters below, which drives everything
/// that handles the counters as a set.
struct FaultStats {
  int64_t drops = 0;             // contacts that never reported (after retries)
  int64_t retries = 0;           // re-contact attempts for dropped clients
  int64_t stragglers = 0;        // clients cut off by the round deadline
  int64_t rejected_uploads = 0;  // uploads screened out (non-finite / norm)
  int64_t clipped_uploads = 0;   // uploads norm-clipped but kept
  int64_t quorum_misses = 0;     // rounds that kept the previous model
  int64_t sampled_clients = 0;   // sum over rounds of cohort size
  int64_t reporting_clients = 0; // sum over rounds of effective cohort size
  double simulated_backoff_s = 0.0;  // simulated seconds spent backing off
  // Self-healing telemetry (fl/health + fl/reputation); all zero when
  // the health layer is disabled.
  int64_t outlier_uploads = 0;    // accepted uploads flagged as norm outliers
  int64_t diverged_rounds = 0;    // rounds the monitor judged diverged
  int64_t rollbacks = 0;          // rollbacks to the last healthy state
  int64_t quarantine_events = 0;  // clients entering quarantine
  int64_t parole_events = 0;      // clients released from quarantine
  int64_t quarantined_skips = 0;  // sampled slots skipped due to quarantine
  // Adversary telemetry (fl/adversary + the Byzantine aggregators).
  // `poisoned_uploads` counts uploads the injected adversary actually
  // rewrote (ground truth, zero in production); `suspected_uploads`
  // counts uploads the Byzantine aggregator flagged as probable poison
  // (the defense's claim). Comparing the two is the attribution story.
  int64_t poisoned_uploads = 0;
  int64_t suspected_uploads = 0;
  // Wire-transport telemetry (fl/transport): what the network did to
  // frames in flight. All zero with transport disabled or a clean
  // channel. These faults are attributed to the NETWORK — they never
  // touch a client's reputation.
  int64_t net_retries = 0;     // request re-sends after unusable exchanges
  int64_t net_timeouts = 0;    // exchanges that produced no usable response
  int64_t net_crc_drops = 0;   // frames discarded (CRC/decode/misroute)
  int64_t net_dedup_drops = 0; // duplicate pushes absorbed by server dedup
  int64_t net_late_drops = 0;  // frames discarded for missing the deadline
  int64_t net_lost = 0;        // client-rounds lost to a dead link
  // Storage telemetry (common/env): persistence calls (journal append,
  // snapshot write) that failed at the filesystem. Training continues —
  // the model is unaffected — but durability coverage degrades, so the
  // count is surfaced rather than swallowed. Attributed to STORAGE:
  // never to the network or to client reputation.
  int64_t storage_write_failures = 0;

  /// Mean fraction of each round's cohort that actually reported.
  double MeanCohortFraction() const {
    return sampled_clients > 0 ? static_cast<double>(reporting_clients) /
                                     static_cast<double>(sampled_clients)
                               : 1.0;
  }
};

/// Per-round telemetry (drives the convergence analysis of Fig. 5 and
/// the resilience curves of bench_fault_tolerance). One journal line
/// per record is persisted by the durability layer (fl/run_state) so a
/// resumed run can replay its history.
struct RoundRecord {
  int round = 0;
  double mean_train_loss = 0.0;
  double global_valid_accuracy = 0.0;
  double wall_seconds = 0.0;
  // Fault telemetry for this round.
  int sampled = 0;           // cohort size selected by Algorithm 3 line 2
  int reporting = 0;         // uploads that survived faults + screening
  int drops = 0;             // clients lost after exhausting retries
  int retries = 0;           // re-contact attempts this round
  int stragglers = 0;        // clients cut off by the deadline
  int rejected_uploads = 0;  // uploads discarded by screening
  bool quorum_met = true;    // false -> previous global model kept
  // Self-healing telemetry; defaults describe a run with --health off.
  double valid_loss = 0.0;       // global model's validation loss
  int verdict = 0;               // fl::HealthVerdict as int (0=healthy)
  int outlier_uploads = 0;       // accepted uploads flagged as outliers
  int quarantined = 0;           // clients in quarantine after this round
  int skipped_quarantined = 0;   // sampled slots skipped (quarantine)
  bool escalated = false;        // round ran under escalated screening
  // Adversary telemetry for this round (see FaultStats).
  int poisoned_uploads = 0;      // uploads the injected adversary rewrote
  int suspected_uploads = 0;     // uploads the Byzantine aggregator flagged
  // Wire-transport telemetry for this round (see FaultStats).
  int net_retries = 0;
  int net_timeouts = 0;
  int net_crc_drops = 0;
  int net_dedup_drops = 0;
  int net_late_drops = 0;
  int net_lost = 0;              // contacted clients lost to network faults
  // Storage telemetry: lifetime storage_write_failures at the time this
  // round committed (a running total, not a per-round delta, so a
  // journal line lost to the very fault it would have recorded still
  // shows up as a jump in the next surviving line).
  int storage_write_failures = 0;
};

/// The snapshot tail (fl/run_state) whose version first carried a
/// counter. Each layer's counters were appended together, so the tail
/// also names the layer the counter belongs to.
enum class CounterTail : int {
  kCore = 1,       // client faults, screening, quorum, cohort sizes
  kHealing = 2,    // fl/health + fl/reputation
  kTransport = 3,  // fl/transport; attributed to the NETWORK
  kStorage = 4,    // common/env persistence; attributed to STORAGE
  kAdversary = 5,  // fl/adversary + the Byzantine aggregators
};

/// How a counter evolves over a run, and what a rollback does to it.
enum class CounterKind {
  /// Sum of per-round events; a rollback restores it with the round.
  kPerRound,
  /// Lifetime total; a rollback keeps it, because the events happened
  /// even when the round that produced them is undone.
  kLifetime,
  /// Running total the trainer bumps directly (storage failures); its
  /// RoundRecord field holds the total at commit, not a delta.
  kRunning,
};

/// Reads a counter's per-round value from a committed RoundRecord.
using RoundReader = int (*)(const RoundRecord&);

template <int RoundRecord::*Field>
constexpr int ReadRound(const RoundRecord& record) {
  return record.*Field;
}

/// A round that kept the previous model counts one quorum miss.
constexpr int ReadQuorumMiss(const RoundRecord& record) {
  return record.quorum_met ? 0 : 1;
}

/// One row of the counter table.
struct FaultCounter {
  const char* name;
  int64_t FaultStats::*total;
  RoundReader per_round;  // null: the round record does not carry it
  CounterTail tail;
  CounterKind kind;
};

/// Every int64 counter of FaultStats, in snapshot order (within a tail,
/// rows are written in table order). The round fold, the rollback, the
/// snapshot codec, the chaos invariants and the CLI tables all loop
/// over this table: adding a counter is one FaultStats field plus one
/// row here (and, for a per-round counter, its RoundRecord field and
/// journal column below).
inline constexpr FaultCounter kFaultCounters[] = {
    {"drops", &FaultStats::drops, &ReadRound<&RoundRecord::drops>,
     CounterTail::kCore, CounterKind::kPerRound},
    {"retries", &FaultStats::retries, &ReadRound<&RoundRecord::retries>,
     CounterTail::kCore, CounterKind::kPerRound},
    {"stragglers", &FaultStats::stragglers,
     &ReadRound<&RoundRecord::stragglers>, CounterTail::kCore,
     CounterKind::kPerRound},
    {"rejected_uploads", &FaultStats::rejected_uploads,
     &ReadRound<&RoundRecord::rejected_uploads>, CounterTail::kCore,
     CounterKind::kPerRound},
    {"clipped_uploads", &FaultStats::clipped_uploads, nullptr,
     CounterTail::kCore, CounterKind::kPerRound},
    {"quorum_misses", &FaultStats::quorum_misses, &ReadQuorumMiss,
     CounterTail::kCore, CounterKind::kPerRound},
    {"sampled_clients", &FaultStats::sampled_clients,
     &ReadRound<&RoundRecord::sampled>, CounterTail::kCore,
     CounterKind::kPerRound},
    {"reporting_clients", &FaultStats::reporting_clients,
     &ReadRound<&RoundRecord::reporting>, CounterTail::kCore,
     CounterKind::kPerRound},
    {"outlier_uploads", &FaultStats::outlier_uploads,
     &ReadRound<&RoundRecord::outlier_uploads>, CounterTail::kHealing,
     CounterKind::kLifetime},
    {"diverged_rounds", &FaultStats::diverged_rounds, nullptr,
     CounterTail::kHealing, CounterKind::kLifetime},
    {"rollbacks", &FaultStats::rollbacks, nullptr, CounterTail::kHealing,
     CounterKind::kLifetime},
    {"quarantine_events", &FaultStats::quarantine_events, nullptr,
     CounterTail::kHealing, CounterKind::kLifetime},
    {"parole_events", &FaultStats::parole_events, nullptr,
     CounterTail::kHealing, CounterKind::kLifetime},
    {"quarantined_skips", &FaultStats::quarantined_skips,
     &ReadRound<&RoundRecord::skipped_quarantined>, CounterTail::kHealing,
     CounterKind::kLifetime},
    {"net_retries", &FaultStats::net_retries,
     &ReadRound<&RoundRecord::net_retries>, CounterTail::kTransport,
     CounterKind::kPerRound},
    {"net_timeouts", &FaultStats::net_timeouts,
     &ReadRound<&RoundRecord::net_timeouts>, CounterTail::kTransport,
     CounterKind::kPerRound},
    {"net_crc_drops", &FaultStats::net_crc_drops,
     &ReadRound<&RoundRecord::net_crc_drops>, CounterTail::kTransport,
     CounterKind::kPerRound},
    {"net_dedup_drops", &FaultStats::net_dedup_drops,
     &ReadRound<&RoundRecord::net_dedup_drops>, CounterTail::kTransport,
     CounterKind::kPerRound},
    {"net_late_drops", &FaultStats::net_late_drops,
     &ReadRound<&RoundRecord::net_late_drops>, CounterTail::kTransport,
     CounterKind::kPerRound},
    {"net_lost", &FaultStats::net_lost, &ReadRound<&RoundRecord::net_lost>,
     CounterTail::kTransport, CounterKind::kPerRound},
    {"storage_write_failures", &FaultStats::storage_write_failures,
     &ReadRound<&RoundRecord::storage_write_failures>, CounterTail::kStorage,
     CounterKind::kRunning},
    {"poisoned_uploads", &FaultStats::poisoned_uploads,
     &ReadRound<&RoundRecord::poisoned_uploads>, CounterTail::kAdversary,
     CounterKind::kPerRound},
    {"suspected_uploads", &FaultStats::suspected_uploads,
     &ReadRound<&RoundRecord::suspected_uploads>, CounterTail::kAdversary,
     CounterKind::kPerRound},
};

// A FaultStats field without a row would silently escape the snapshot,
// the rollback and every invariant: refuse to compile instead. The one
// non-counter field is simulated_backoff_s (a per-round double written
// at the end of the core tail).
static_assert(sizeof(FaultStats) ==
                  sizeof(double) + std::size(kFaultCounters) * sizeof(int64_t),
              "every FaultStats counter needs a row in kFaultCounters");

/// Adds a committed round to the run totals: every counter the record
/// carries, except running totals (already current).
inline void FoldRound(const RoundRecord& record, FaultStats* faults) {
  for (const FaultCounter& counter : kFaultCounters) {
    if (counter.per_round != nullptr && counter.kind != CounterKind::kRunning) {
      faults->*counter.total += counter.per_round(record);
    }
  }
}

/// The sampled clients a round's outcome buckets account for; each
/// sampled client lands in exactly one, so this equals `sampled`.
inline int AccountedClients(const RoundRecord& record) {
  return record.skipped_quarantined + record.drops + record.net_lost +
         record.stragglers + record.rejected_uploads + record.reporting;
}

/// Rollback: restores every per-round counter (and the backoff seconds)
/// from `anchor`; lifetime and running counters keep their values.
inline void RollBackCounters(const FaultStats& anchor, FaultStats* faults) {
  for (const FaultCounter& counter : kFaultCounters) {
    if (counter.kind == CounterKind::kPerRound) {
      faults->*counter.total = anchor.*counter.total;
    }
  }
  faults->simulated_backoff_s = anchor.simulated_backoff_s;
}

/// One RoundRecord field as a journal column; exactly one member
/// pointer is set. Booleans travel as 0/1, doubles as %.17g.
struct RoundColumn {
  const char* name;
  int RoundRecord::*int_field = nullptr;
  double RoundRecord::*double_field = nullptr;
  bool RoundRecord::*bool_field = nullptr;
};

/// The journal line's columns in order (fl/run_state). The first
/// kJournalV1Columns are mandatory; later ones were appended version by
/// version, and a reader fills only those a line carries. New columns
/// go at the end.
inline constexpr RoundColumn kRoundColumns[] = {
    {.name = "round", .int_field = &RoundRecord::round},
    {.name = "mean_train_loss", .double_field = &RoundRecord::mean_train_loss},
    {.name = "global_valid_accuracy",
     .double_field = &RoundRecord::global_valid_accuracy},
    {.name = "wall_seconds", .double_field = &RoundRecord::wall_seconds},
    {.name = "sampled", .int_field = &RoundRecord::sampled},
    {.name = "reporting", .int_field = &RoundRecord::reporting},
    {.name = "drops", .int_field = &RoundRecord::drops},
    {.name = "retries", .int_field = &RoundRecord::retries},
    {.name = "stragglers", .int_field = &RoundRecord::stragglers},
    {.name = "rejected_uploads", .int_field = &RoundRecord::rejected_uploads},
    {.name = "quorum_met", .bool_field = &RoundRecord::quorum_met},
    // v2: self-healing.
    {.name = "valid_loss", .double_field = &RoundRecord::valid_loss},
    {.name = "verdict", .int_field = &RoundRecord::verdict},
    {.name = "outlier_uploads", .int_field = &RoundRecord::outlier_uploads},
    {.name = "quarantined", .int_field = &RoundRecord::quarantined},
    {.name = "skipped_quarantined",
     .int_field = &RoundRecord::skipped_quarantined},
    {.name = "escalated", .bool_field = &RoundRecord::escalated},
    // v3: wire transport.
    {.name = "net_retries", .int_field = &RoundRecord::net_retries},
    {.name = "net_timeouts", .int_field = &RoundRecord::net_timeouts},
    {.name = "net_crc_drops", .int_field = &RoundRecord::net_crc_drops},
    {.name = "net_dedup_drops", .int_field = &RoundRecord::net_dedup_drops},
    {.name = "net_late_drops", .int_field = &RoundRecord::net_late_drops},
    {.name = "net_lost", .int_field = &RoundRecord::net_lost},
    // v4: storage.
    {.name = "storage_write_failures",
     .int_field = &RoundRecord::storage_write_failures},
    // v5: adversary.
    {.name = "poisoned_uploads", .int_field = &RoundRecord::poisoned_uploads},
    {.name = "suspected_uploads",
     .int_field = &RoundRecord::suspected_uploads},
};
inline constexpr size_t kJournalV1Columns = 11;

/// The value of an int or bool column (a bool reads as 0/1).
inline int IntColumnValue(const RoundColumn& column,
                          const RoundRecord& record) {
  return column.int_field != nullptr ? record.*column.int_field
                                     : (record.*column.bool_field ? 1 : 0);
}

/// Accumulated transport statistics of one federated run. Every figure
/// is *measured* from encoded frame lengths — retransmissions and
/// channel-injected duplicates included.
struct CommStats {
  int64_t bytes_downlink = 0;  // server -> clients
  int64_t bytes_uplink = 0;    // clients -> server
  int64_t messages = 0;
  int64_t rounds = 0;

  int64_t TotalBytes() const { return bytes_downlink + bytes_uplink; }

  /// Transfer time under a simple bandwidth model (e.g., 1 Gbps -> pass
  /// 125e6 bytes/s), plus per-message latency.
  double SimulatedSeconds(double bytes_per_second,
                          double latency_s_per_message) const {
    return static_cast<double>(TotalBytes()) / bytes_per_second +
           static_cast<double>(messages) * latency_s_per_message;
  }
};

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_COMM_STATS_H_

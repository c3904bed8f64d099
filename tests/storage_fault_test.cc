// Tests for the storage-fault layer: FaultyFileSystem semantics (every
// fault axis, sync/crash behavior, seeded determinism), the
// failure-path hygiene contract both FileSystem backends share,
// cross-version run-state decoding (a v4 reader must load v1/v2/v3
// blobs), the counter table's journal/snapshot round trip and golden
// bytes, backoff saturation at extreme retry counts, and
// corrupted-newest snapshot fallback driven by a filesystem-injected
// read fault rather than on-disk byte surgery.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/env.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"
#include "nn/losses.h"
#include "roadnet/generators.h"
#include "traj/generator.h"
#include "traj/workload.h"

namespace lighttr {
namespace {

// Number of differing bits between two equal-length byte strings.
int BitDifference(const std::string& a, const std::string& b) {
  EXPECT_EQ(a.size(), b.size());
  int bits = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    unsigned char x = static_cast<unsigned char>(a[i]) ^
                      static_cast<unsigned char>(b[i]);
    for (; x != 0; x &= static_cast<unsigned char>(x - 1)) ++bits;
  }
  return bits;
}

std::string MustRead(FileSystem* fs, const std::string& path) {
  Result<std::string> contents = fs->ReadFile(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return contents.ok() ? contents.value() : std::string();
}

// ---------------------------------------------------------------------
// FaultyFileSystem as a plain RAM disk (all-zero fault config).

TEST(FaultyFileSystem, CleanConfigActsAsDeterministicRamDisk) {
  FaultyFileSystem fs;
  ASSERT_TRUE(fs.CreateDirs("a/b").ok());
  EXPECT_TRUE(fs.Exists("a"));
  EXPECT_TRUE(fs.Exists("a/b"));

  ASSERT_TRUE(fs.WriteFileAtomic("a/b/x", "hello").ok());
  EXPECT_TRUE(fs.Exists("a/b/x"));
  EXPECT_EQ(MustRead(&fs, "a/b/x"), "hello");
  ASSERT_TRUE(fs.WriteFileAtomic("a/b/x", "rewritten").ok());
  EXPECT_EQ(MustRead(&fs, "a/b/x"), "rewritten");

  ASSERT_TRUE(fs.AppendToFile("a/b/log", "one ").ok());
  ASSERT_TRUE(fs.AppendToFile("a/b/log", "two").ok());
  EXPECT_EQ(MustRead(&fs, "a/b/log"), "one two");

  Result<std::vector<std::string>> names = fs.ListDir("a/b");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"log", "x"}));
  EXPECT_FALSE(fs.ListDir("missing").ok());
  EXPECT_EQ(fs.ListDir("missing").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(fs.Remove("a/b/log").ok());
  EXPECT_FALSE(fs.Exists("a/b/log"));
  ASSERT_TRUE(fs.Remove("a/b/log").ok());  // removing a missing file is OK

  // Writes into a directory that was never created must fail, not
  // invent parents behind the caller's back.
  EXPECT_FALSE(fs.WriteFileAtomic("nodir/f", "x").ok());
  EXPECT_FALSE(fs.AppendToFile("nodir/f", "x").ok());
  EXPECT_FALSE(fs.ReadFile("a/b/ghost").ok());

  const StorageFaultStats stats = fs.stats();
  EXPECT_EQ(stats.WriteFaults(), 0);
  EXPECT_EQ(stats.bitrot_reads, 0);
  EXPECT_EQ(stats.tmp_litter_files, 0);
}

// ---------------------------------------------------------------------
// Individual fault axes.

TEST(FaultyFileSystem, EnospcFailsTheCallAndLeavesContentsUntouched) {
  StorageFaultConfig config;
  config.enospc_rate = 1.0;
  FaultyFileSystem fs(config);
  fs.set_faults_paused(true);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "old").ok());
  fs.set_faults_paused(false);

  EXPECT_EQ(fs.WriteFileAtomic("f", "new").code(), StatusCode::kIoError);
  EXPECT_EQ(fs.AppendToFile("f", "tail").code(), StatusCode::kIoError);
  EXPECT_EQ(MustRead(&fs, "f"), "old");
  EXPECT_FALSE(fs.Exists("f.tmp"));

  const StorageFaultStats stats = fs.stats();
  EXPECT_EQ(stats.enospc_failures, 2);
  EXPECT_EQ(stats.WriteFaults(), 2);
}

TEST(FaultyFileSystem, TornAppendWritesProperPrefixAndReportsIoError) {
  StorageFaultConfig config;
  config.torn_append_rate = 1.0;
  FaultyFileSystem fs(config);
  const std::string line = "0123456789";
  EXPECT_EQ(fs.AppendToFile("journal", line).code(), StatusCode::kIoError);

  // A proper prefix landed: strictly shorter than the payload, and
  // byte-identical to the payload's head.
  fs.set_faults_paused(true);
  const std::string tail = MustRead(&fs, "journal");
  EXPECT_LT(tail.size(), line.size());
  EXPECT_EQ(tail, line.substr(0, tail.size()));
  EXPECT_EQ(fs.stats().torn_appends, 1);
}

TEST(FaultyFileSystem, RenameFailureKeepsOldContentsAndCleansTemp) {
  StorageFaultConfig config;
  config.rename_fail_rate = 1.0;
  FaultyFileSystem fs(config);
  fs.set_faults_paused(true);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "old").ok());
  fs.set_faults_paused(false);

  EXPECT_EQ(fs.WriteFileAtomic("f", "new").code(), StatusCode::kIoError);
  EXPECT_EQ(MustRead(&fs, "f"), "old");
  // The hygiene contract: the failed writer's temp does not survive.
  EXPECT_FALSE(fs.Exists("f.tmp"));
  for (const std::string& path : fs.AllFiles()) {
    EXPECT_EQ(path.find(".tmp"), std::string::npos) << path;
  }
  EXPECT_EQ(fs.stats().rename_failures, 1);
}

TEST(FaultyFileSystem, PlantedLeakLeavesOrphanTempThatIsNotLitter) {
  StorageFaultConfig config;
  config.rename_fail_rate = 1.0;
  FaultyFileSystem fs(config);
  fs.set_leak_tmp_on_rename_failure(true);
  EXPECT_FALSE(fs.WriteFileAtomic("f", "new").ok());
  // The planted bug leaks the temp — and it must NOT be classified as
  // injected litter, or the orphan-temp invariant could never see it.
  EXPECT_TRUE(fs.Exists("f.tmp"));
  EXPECT_FALSE(fs.IsInjectedLitter("f.tmp"));
}

TEST(FaultyFileSystem, ReadBitrotFlipsOneBitAndLeavesStorageIntact) {
  StorageFaultConfig config;
  config.read_bitrot_rate = 1.0;
  FaultyFileSystem fs(config);
  const std::string original = "the stored bytes stay intact";
  ASSERT_TRUE(fs.WriteFileAtomic("f", original).ok());

  const std::string rotted = MustRead(&fs, "f");
  EXPECT_EQ(BitDifference(original, rotted), 1);

  // Rot is read-path only: with faults paused the pristine contents
  // come back, so the "disk" was never damaged.
  fs.set_faults_paused(true);
  EXPECT_EQ(MustRead(&fs, "f"), original);
  EXPECT_EQ(fs.stats().bitrot_reads, 1);
}

TEST(FaultyFileSystem, InjectBitrotOnceCorruptsExactlyOneRead) {
  FaultyFileSystem fs;  // no configured rot: only the targeted hook
  const std::string original = "snapshot-bytes";
  ASSERT_TRUE(fs.WriteFileAtomic("f", original).ok());
  fs.InjectBitrotOnce("f");

  const std::string first = MustRead(&fs, "f");
  EXPECT_EQ(BitDifference(original, first), 1);
  EXPECT_EQ(MustRead(&fs, "f"), original);  // second read is clean
  EXPECT_EQ(fs.stats().bitrot_reads, 1);
}

TEST(FaultyFileSystem, TmpLitterIsTrackedAndClobberedByTheNextWriter) {
  StorageFaultConfig config;
  config.tmp_litter_rate = 1.0;
  FaultyFileSystem fs(config);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "contents").ok());
  EXPECT_TRUE(fs.Exists("f.tmp"));
  EXPECT_TRUE(fs.IsInjectedLitter("f.tmp"));
  EXPECT_EQ(fs.stats().tmp_litter_files, 1);

  // The next writer's trunc-open clobbers the stale partial even
  // before fault injection gets a say.
  fs.set_faults_paused(true);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "again").ok());
  EXPECT_FALSE(fs.Exists("f.tmp"));
  EXPECT_FALSE(fs.IsInjectedLitter("f.tmp"));
}

TEST(FaultyFileSystem, LossyCrashRevertsToSyncedAndDropsNeverSynced) {
  StorageFaultConfig config;
  config.lose_unsynced_on_crash = true;
  FaultyFileSystem fs(config);
  ASSERT_TRUE(fs.WriteFileAtomic("a", "v1").ok());
  ASSERT_TRUE(fs.SyncAll().ok());
  ASSERT_TRUE(fs.WriteFileAtomic("a", "v2").ok());   // unsynced rewrite
  ASSERT_TRUE(fs.WriteFileAtomic("b", "only").ok()); // never synced

  fs.SimulateCrash();
  EXPECT_EQ(MustRead(&fs, "a"), "v1");
  EXPECT_FALSE(fs.Exists("b"));

  const StorageFaultStats stats = fs.stats();
  EXPECT_EQ(stats.crash_reverted_files, 1);
  EXPECT_EQ(stats.crash_lost_files, 1);
}

TEST(FaultyFileSystem, KindCrashKeepsEverything) {
  FaultyFileSystem fs;  // lose_unsynced_on_crash defaults to false
  ASSERT_TRUE(fs.WriteFileAtomic("a", "unsynced").ok());
  fs.SimulateCrash();
  EXPECT_EQ(MustRead(&fs, "a"), "unsynced");
  EXPECT_EQ(fs.stats().crash_reverted_files, 0);
  EXPECT_EQ(fs.stats().crash_lost_files, 0);
}

// ---------------------------------------------------------------------
// Determinism of the fault schedule.

TEST(FaultyFileSystem, SameSeedSameOperationsSameFaultSchedule) {
  StorageFaultConfig config;
  config.seed = 99;
  config.enospc_rate = 0.3;
  config.torn_append_rate = 0.3;
  config.rename_fail_rate = 0.3;
  config.read_bitrot_rate = 0.3;
  FaultyFileSystem a(config);
  FaultyFileSystem b(config);
  for (int i = 0; i < 40; ++i) {
    const std::string path = "f" + std::to_string(i % 5);
    EXPECT_EQ(a.WriteFileAtomic(path, "payload").code(),
              b.WriteFileAtomic(path, "payload").code());
    EXPECT_EQ(a.AppendToFile("log", "line\n").code(),
              b.AppendToFile("log", "line\n").code());
    EXPECT_EQ(a.ReadFile("log").ok(), b.ReadFile("log").ok());
  }
  const StorageFaultStats sa = a.stats();
  const StorageFaultStats sb = b.stats();
  EXPECT_EQ(sa.enospc_failures, sb.enospc_failures);
  EXPECT_EQ(sa.torn_appends, sb.torn_appends);
  EXPECT_EQ(sa.rename_failures, sb.rename_failures);
  EXPECT_EQ(sa.bitrot_reads, sb.bitrot_reads);
  EXPECT_EQ(a.AllFiles(), b.AllFiles());
}

TEST(FaultyFileSystem, PausedOperationsConsumeNoFaultDraws) {
  StorageFaultConfig config;
  config.seed = 123;
  config.enospc_rate = 0.5;
  FaultyFileSystem paused_then_live(config);
  FaultyFileSystem fresh(config);

  // Twenty paused operations must not advance the fault stream: after
  // unpausing, the schedule matches a filesystem that never paused.
  paused_then_live.set_faults_paused(true);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(paused_then_live.WriteFileAtomic("warm", "x").ok());
  }
  paused_then_live.set_faults_paused(false);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(paused_then_live.WriteFileAtomic("f", "x").code(),
              fresh.WriteFileAtomic("f", "x").code())
        << "draw " << i;
  }
}

// ---------------------------------------------------------------------
// Hygiene contract on the real backend.

TEST(RealFileSystem, AtomicWriteClobbersStaleTempFromACrashedWriter) {
  FileSystem* fs = RealFileSystemInstance();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "env_hygiene")
          .generic_string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(fs->CreateDirs(dir).ok());
  const std::string path = dir + "/f";
  ASSERT_TRUE(fs->AppendToFile(path + ".tmp", "stale partial").ok());

  ASSERT_TRUE(fs->WriteFileAtomic(path, "fresh").ok());
  EXPECT_FALSE(fs->Exists(path + ".tmp"));
  EXPECT_EQ(MustRead(fs, path), "fresh");
}

TEST(RealFileSystem, FailedAtomicWriteLeavesNoTemp) {
  FileSystem* fs = RealFileSystemInstance();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "env_hygiene_fail")
          .generic_string();
  std::filesystem::remove_all(dir);
  // The parent directory does not exist, so the write must fail —
  // and fail cleanly, without leaving a temp anywhere.
  const std::string path = dir + "/missing/f";
  EXPECT_FALSE(fs->WriteFileAtomic(path, "x").ok());
  EXPECT_FALSE(fs->Exists(path + ".tmp"));
  EXPECT_FALSE(fs->Exists(path));
}

// ---------------------------------------------------------------------
// Backoff saturation (the overflow-hardening companion test).

TEST(Backoff, SaturatesAtExtremeRetryCounts) {
  BackoffConfig config;
  config.base_delay_s = 0.5;
  config.multiplier = 2.0;
  config.max_delay_s = 8.0;
  config.jitter = 0.0;
  // Naive pow-based schedules overflow to inf near retry 1024 (and a
  // shift-based one wraps at 63); the capped schedule must return the
  // cap for any huge retry index.
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 63, nullptr), 8.0);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 1024, nullptr), 8.0);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, INT_MAX, nullptr), 8.0);

  BackoffConfig flat = config;
  flat.multiplier = 1.0;  // non-growing schedules take the other branch
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(flat, 100000, nullptr), 0.5);

  BackoffConfig decaying = config;
  decaying.multiplier = 0.5;
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(decaying, 1, nullptr), 0.25);
  EXPECT_GE(BackoffDelaySeconds(decaying, 4096, nullptr), 0.0);
}

// ---------------------------------------------------------------------
// Cross-version run-state decoding: the v5 reader must load v1..v4
// blobs with the newer tails left at defaults. The encoders below
// replicate each historical layout byte for byte (shared prefix, then
// per-version tails), capped with the same whole-file CRC trailer.

fl::ServerRunState DistinctiveState() {
  fl::ServerRunState state;
  state.round = 9;
  state.rng_state = Rng(41).SerializeState();
  state.fault_rng_state = Rng(42).SerializeState();
  state.comm.bytes_downlink = 1111;
  state.comm.bytes_uplink = 2222;
  state.comm.messages = 33;
  state.comm.rounds = 9;
  state.faults.drops = 4;
  state.faults.retries = 6;
  state.faults.stragglers = 2;
  state.faults.rejected_uploads = 1;
  state.faults.clipped_uploads = 3;
  state.faults.quorum_misses = 1;
  state.faults.sampled_clients = 36;
  state.faults.reporting_clients = 30;
  state.faults.simulated_backoff_s = 2.75;
  state.global_params_blob = "fake-checkpoint";
  state.optimizer_blobs = {"opt-0", "opt-1"};
  state.faults.outlier_uploads = 5;
  state.faults.diverged_rounds = 1;
  state.faults.rollbacks = 1;
  state.faults.quarantine_events = 2;
  state.faults.parole_events = 1;
  state.faults.quarantined_skips = 3;
  state.reputation_blob = "rep";
  state.monitor_blob = "mon";
  state.escalated = true;
  state.faults.net_retries = 7;
  state.faults.net_timeouts = 2;
  state.faults.net_crc_drops = 1;
  state.faults.net_dedup_drops = 1;
  state.faults.net_late_drops = 2;
  state.faults.net_lost = 3;
  state.net_rng_state = Rng(43).SerializeState();
  state.faults.storage_write_failures = 4;
  state.faults.poisoned_uploads = 6;
  state.faults.suspected_uploads = 5;
  state.adversary_blob = "adv";
  state.normbound_blob = "nbw";
  return state;
}

std::string EncodeAtVersion(const fl::ServerRunState& state,
                            uint32_t version) {
  BinaryWriter writer;
  writer.WriteBytes("LTRS", 4);
  writer.WriteU32(version);
  writer.WriteU32(static_cast<uint32_t>(state.round));
  writer.WriteString(state.rng_state);
  writer.WriteString(state.fault_rng_state);
  writer.WriteI64(state.comm.bytes_downlink);
  writer.WriteI64(state.comm.bytes_uplink);
  writer.WriteI64(state.comm.messages);
  writer.WriteI64(state.comm.rounds);
  writer.WriteI64(state.faults.drops);
  writer.WriteI64(state.faults.retries);
  writer.WriteI64(state.faults.stragglers);
  writer.WriteI64(state.faults.rejected_uploads);
  writer.WriteI64(state.faults.clipped_uploads);
  writer.WriteI64(state.faults.quorum_misses);
  writer.WriteI64(state.faults.sampled_clients);
  writer.WriteI64(state.faults.reporting_clients);
  writer.WriteF64(state.faults.simulated_backoff_s);
  writer.WriteString(state.global_params_blob);
  writer.WriteU32(static_cast<uint32_t>(state.optimizer_blobs.size()));
  for (const std::string& blob : state.optimizer_blobs) {
    writer.WriteString(blob);
  }
  if (version >= 2) {
    writer.WriteI64(state.faults.outlier_uploads);
    writer.WriteI64(state.faults.diverged_rounds);
    writer.WriteI64(state.faults.rollbacks);
    writer.WriteI64(state.faults.quarantine_events);
    writer.WriteI64(state.faults.parole_events);
    writer.WriteI64(state.faults.quarantined_skips);
    writer.WriteString(state.reputation_blob);
    writer.WriteString(state.monitor_blob);
    writer.WriteU8(state.escalated ? 1 : 0);
  }
  if (version >= 3) {
    writer.WriteI64(state.faults.net_retries);
    writer.WriteI64(state.faults.net_timeouts);
    writer.WriteI64(state.faults.net_crc_drops);
    writer.WriteI64(state.faults.net_dedup_drops);
    writer.WriteI64(state.faults.net_late_drops);
    writer.WriteI64(state.faults.net_lost);
    writer.WriteString(state.net_rng_state);
  }
  if (version >= 4) {
    writer.WriteI64(state.faults.storage_write_failures);
  }
  if (version >= 5) {
    writer.WriteI64(state.faults.poisoned_uploads);
    writer.WriteI64(state.faults.suspected_uploads);
    writer.WriteString(state.adversary_blob);
    writer.WriteString(state.normbound_blob);
  }
  std::string out = writer.Take();
  AppendCrc32Trailer(&out);
  return out;
}

TEST(RunStateVersions, V1BlobDecodesWithNewerTailsAtDefaults) {
  const fl::ServerRunState state = DistinctiveState();
  fl::ServerRunState out;
  ASSERT_TRUE(fl::DecodeRunState(EncodeAtVersion(state, 1), &out).ok());
  // The shared prefix survives...
  EXPECT_EQ(out.round, state.round);
  EXPECT_EQ(out.rng_state, state.rng_state);
  EXPECT_EQ(out.fault_rng_state, state.fault_rng_state);
  EXPECT_EQ(out.comm.bytes_downlink, state.comm.bytes_downlink);
  EXPECT_EQ(out.faults.drops, state.faults.drops);
  EXPECT_EQ(out.faults.simulated_backoff_s, state.faults.simulated_backoff_s);
  EXPECT_EQ(out.global_params_blob, state.global_params_blob);
  EXPECT_EQ(out.optimizer_blobs, state.optimizer_blobs);
  // ...and every newer tail stays at its default.
  EXPECT_EQ(out.faults.outlier_uploads, 0);
  EXPECT_EQ(out.reputation_blob, "");
  EXPECT_EQ(out.monitor_blob, "");
  EXPECT_FALSE(out.escalated);
  EXPECT_EQ(out.faults.net_retries, 0);
  EXPECT_EQ(out.faults.net_lost, 0);
  EXPECT_EQ(out.net_rng_state, "");
  EXPECT_EQ(out.faults.storage_write_failures, 0);
}

TEST(RunStateVersions, V2BlobDecodesHealingTailButNotNewer) {
  const fl::ServerRunState state = DistinctiveState();
  fl::ServerRunState out;
  ASSERT_TRUE(fl::DecodeRunState(EncodeAtVersion(state, 2), &out).ok());
  EXPECT_EQ(out.faults.outlier_uploads, state.faults.outlier_uploads);
  EXPECT_EQ(out.faults.quarantined_skips, state.faults.quarantined_skips);
  EXPECT_EQ(out.reputation_blob, state.reputation_blob);
  EXPECT_EQ(out.monitor_blob, state.monitor_blob);
  EXPECT_TRUE(out.escalated);
  EXPECT_EQ(out.faults.net_retries, 0);
  EXPECT_EQ(out.net_rng_state, "");
  EXPECT_EQ(out.faults.storage_write_failures, 0);
}

TEST(RunStateVersions, V3BlobDecodesNetTailButNotStorage) {
  const fl::ServerRunState state = DistinctiveState();
  fl::ServerRunState out;
  ASSERT_TRUE(fl::DecodeRunState(EncodeAtVersion(state, 3), &out).ok());
  EXPECT_EQ(out.faults.net_retries, state.faults.net_retries);
  EXPECT_EQ(out.faults.net_lost, state.faults.net_lost);
  EXPECT_EQ(out.net_rng_state, state.net_rng_state);
  EXPECT_EQ(out.faults.storage_write_failures, 0);
}

TEST(RunStateVersions, V4BlobDecodesStorageTailButNotAdversary) {
  const fl::ServerRunState state = DistinctiveState();
  fl::ServerRunState out;
  ASSERT_TRUE(fl::DecodeRunState(EncodeAtVersion(state, 4), &out).ok());
  EXPECT_EQ(out.faults.storage_write_failures,
            state.faults.storage_write_failures);
  EXPECT_EQ(out.faults.poisoned_uploads, 0);
  EXPECT_EQ(out.faults.suspected_uploads, 0);
  EXPECT_EQ(out.adversary_blob, "");
  EXPECT_EQ(out.normbound_blob, "");
}

TEST(RunStateVersions, V5MatchesTheLiveEncoder) {
  const fl::ServerRunState state = DistinctiveState();
  // The hand-rolled v5 encoder and the live one must agree exactly —
  // this pins the layout the older-version encoders are derived from.
  EXPECT_EQ(EncodeAtVersion(state, 5), fl::EncodeRunState(state));
}

TEST(RunStateVersions, UnsupportedVersionsAreRejected) {
  const fl::ServerRunState state = DistinctiveState();
  for (uint32_t version : {0u, 6u, 999u}) {
    fl::ServerRunState out;
    const Status status =
        fl::DecodeRunState(EncodeAtVersion(state, version), &out);
    EXPECT_FALSE(status.ok()) << "version " << version;
  }
}

TEST(RunStateVersions, TrailingBytesAfterAKnownVersionAreRejected) {
  // A v1 header followed by v2-tail bytes is a corrupt file, not a
  // forward-compatible one: the reader must insist on AtEnd.
  const fl::ServerRunState state = DistinctiveState();
  std::string blob = EncodeAtVersion(state, 1);
  blob.resize(blob.size() - sizeof(uint32_t));  // strip the CRC trailer
  BinaryWriter extra;
  extra.WriteI64(777);
  blob += extra.Take();
  AppendCrc32Trailer(&blob);
  fl::ServerRunState out;
  EXPECT_FALSE(fl::DecodeRunState(blob, &out).ok());
}

// ---------------------------------------------------------------------
// The counter table (fl/comm_stats.h) drives the journal columns and
// the snapshot counter tails; these tests pin that every counter makes
// the trip, and that the bytes match what the hand-written codecs the
// table replaced produced.

TEST(CounterTable, EveryCounterRoundTripsThroughJournalAndSnapshot) {
  FaultyFileSystem fs;
  fl::RoundRecord record;
  int next = 2;  // >= 2, so no value collides with a 0/1 quorum miss
  for (const fl::RoundColumn& column : fl::kRoundColumns) {
    if (column.int_field != nullptr) record.*column.int_field = next;
    if (column.double_field != nullptr) {
      record.*column.double_field = next + 1.0 / 3.0;
    }
    if (column.bool_field != nullptr) {
      record.*column.bool_field = !(record.*column.bool_field);
    }
    ++next;
  }
  ASSERT_TRUE(fl::AppendJournalRecord(&fs, "/run", record).ok());
  Result<std::vector<fl::RoundRecord>> journal = fl::ReadJournal(&fs, "/run");
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(journal.value().size(), 1u);
  const fl::RoundRecord& back = journal.value()[0];
  for (const fl::RoundColumn& column : fl::kRoundColumns) {
    if (column.double_field != nullptr) {
      EXPECT_EQ(back.*column.double_field, record.*column.double_field)
          << column.name;
    } else {
      EXPECT_EQ(fl::IntColumnValue(column, back),
                fl::IntColumnValue(column, record))
          << column.name;
    }
  }
  // No two counters read the same round field.
  std::vector<int> per_round;
  for (const fl::FaultCounter& counter : fl::kFaultCounters) {
    if (counter.per_round == nullptr) continue;
    const int value = counter.per_round(record);
    EXPECT_EQ(std::count(per_round.begin(), per_round.end(), value), 0)
        << counter.name;
    per_round.push_back(value);
  }

  fl::ServerRunState state;
  state.round = 3;
  int64_t value = 1000;
  for (const fl::FaultCounter& counter : fl::kFaultCounters) {
    state.faults.*counter.total = value++;
  }
  state.faults.simulated_backoff_s = 0.75;
  ASSERT_TRUE(fl::SaveRunState(&fs, "/run/snap.ltrs", state).ok());
  Result<fl::ServerRunState> loaded = fl::LoadRunState(&fs, "/run/snap.ltrs");
  ASSERT_TRUE(loaded.ok());
  for (const fl::FaultCounter& counter : fl::kFaultCounters) {
    EXPECT_EQ(loaded.value().faults.*counter.total, state.faults.*counter.total)
        << counter.name;
  }
  EXPECT_EQ(loaded.value().faults.simulated_backoff_s, 0.75);
}

TEST(CounterTable, RollbackRestoresPerRoundCountersOnly) {
  // The counters a rollback keeps: the healing layer's lifetime totals
  // and the running storage total.
  const std::vector<std::string> kept = {
      "outlier_uploads",   "diverged_rounds", "rollbacks",
      "quarantine_events", "parole_events",   "quarantined_skips",
      "storage_write_failures"};
  fl::FaultStats anchor;
  fl::FaultStats live;
  for (const fl::FaultCounter& counter : fl::kFaultCounters) {
    anchor.*counter.total = 1;
    live.*counter.total = 9;
  }
  anchor.simulated_backoff_s = 1.0;
  live.simulated_backoff_s = 9.0;
  fl::RollBackCounters(anchor, &live);
  for (const fl::FaultCounter& counter : fl::kFaultCounters) {
    const bool keeps =
        std::count(kept.begin(), kept.end(), counter.name) > 0;
    const int64_t expected = keeps ? 9 : 1;
    EXPECT_EQ(live.*counter.total, expected) << counter.name;
  }
  EXPECT_EQ(live.simulated_backoff_s, 1.0);
}

TEST(CounterTable, FoldAddsRoundDeltasButNotRunningTotals) {
  fl::RoundRecord record;
  record.drops = 2;
  record.quorum_met = false;
  record.skipped_quarantined = 3;
  record.storage_write_failures = 5;
  fl::FaultStats faults;
  faults.storage_write_failures = 7;
  fl::FoldRound(record, &faults);
  fl::FoldRound(record, &faults);
  EXPECT_EQ(faults.drops, 4);
  EXPECT_EQ(faults.quorum_misses, 2);
  EXPECT_EQ(faults.quarantined_skips, 6);
  EXPECT_EQ(faults.storage_write_failures, 7);
}

// Bytes produced by the hand-written journal formatter and snapshot
// encoder that the counter table replaced, for the state below.
constexpr char kGoldenJournalLine[] =
    "12 0.33333333333333331 0.625 0.10000000000000001 31 17 2 5 3 4 0 "
    "0.2857142857142857 2 6 7 8 1 9 10 11 12 13 14 15 16 18 fc4f93fb\n";
constexpr char kGoldenSnapshotHex[] =
    "4c545253050000000c0000000300000000000000726e67050000000000000066"
    "61756c745704000000000000ae0800000000000021000000000000000c000000"
    "0000000065000000000000006600000000000000670000000000000068000000"
    "0000000069000000000000006a000000000000006b000000000000006c000000"
    "0000000000000000000006400600000000000000706172616d73020000000500"
    "0000000000006f70742d3005000000000000006f70742d316d00000000000000"
    "6e000000000000006f0000000000000070000000000000007100000000000000"
    "7200000000000000030000000000000072657003000000000000006d6f6e0173"
    "0000000000000074000000000000007500000000000000760000000000000077"
    "00000000000000780000000000000003000000000000006e6574790000000000"
    "00007a000000000000007b000000000000000300000000000000616476030000"
    "00000000006e62770388f3a2";

std::string FromHex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const int byte = std::stoi(hex.substr(i, 2), nullptr, 16);
    bytes.push_back(static_cast<char>(byte));
  }
  return bytes;
}

TEST(CounterTable, JournalLineAndSnapshotBytesAreUnchanged) {
  fl::RoundRecord r;
  r.round = 12;
  r.mean_train_loss = 1.0 / 3.0;
  r.global_valid_accuracy = 0.625;
  r.wall_seconds = 0.1;
  r.sampled = 31;
  r.reporting = 17;
  r.drops = 2;
  r.retries = 5;
  r.stragglers = 3;
  r.rejected_uploads = 4;
  r.quorum_met = false;
  r.valid_loss = 2.0 / 7.0;
  r.verdict = 2;
  r.outlier_uploads = 6;
  r.quarantined = 7;
  r.skipped_quarantined = 8;
  r.escalated = true;
  r.net_retries = 9;
  r.net_timeouts = 10;
  r.net_crc_drops = 11;
  r.net_dedup_drops = 12;
  r.net_late_drops = 13;
  r.net_lost = 14;
  r.storage_write_failures = 15;
  r.poisoned_uploads = 16;
  r.suspected_uploads = 18;
  FaultyFileSystem fs;
  ASSERT_TRUE(fl::AppendJournalRecord(&fs, "/g", r).ok());
  Result<std::string> journal = fs.ReadFile("/g/journal.log");
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal.value(), kGoldenJournalLine);

  fl::ServerRunState s;
  s.round = 12;
  s.rng_state = "rng";
  s.fault_rng_state = "fault";
  s.comm.bytes_downlink = 1111;
  s.comm.bytes_uplink = 2222;
  s.comm.messages = 33;
  s.comm.rounds = 12;
  s.faults.drops = 101;
  s.faults.retries = 102;
  s.faults.stragglers = 103;
  s.faults.rejected_uploads = 104;
  s.faults.clipped_uploads = 105;
  s.faults.quorum_misses = 106;
  s.faults.sampled_clients = 107;
  s.faults.reporting_clients = 108;
  s.faults.simulated_backoff_s = 2.75;
  s.faults.outlier_uploads = 109;
  s.faults.diverged_rounds = 110;
  s.faults.rollbacks = 111;
  s.faults.quarantine_events = 112;
  s.faults.parole_events = 113;
  s.faults.quarantined_skips = 114;
  s.faults.net_retries = 115;
  s.faults.net_timeouts = 116;
  s.faults.net_crc_drops = 117;
  s.faults.net_dedup_drops = 118;
  s.faults.net_late_drops = 119;
  s.faults.net_lost = 120;
  s.faults.storage_write_failures = 121;
  s.faults.poisoned_uploads = 122;
  s.faults.suspected_uploads = 123;
  s.global_params_blob = "params";
  s.optimizer_blobs = {"opt-0", "opt-1"};
  s.reputation_blob = "rep";
  s.monitor_blob = "mon";
  s.escalated = true;
  s.net_rng_state = "net";
  s.adversary_blob = "adv";
  s.normbound_blob = "nbw";
  EXPECT_EQ(fl::EncodeRunState(s), FromHex(kGoldenSnapshotHex));
}

// ---------------------------------------------------------------------
// Corrupted-newest snapshot fallback, driven through the filesystem:
// the read fault is injected by FaultyFileSystem (InjectBitrotOnce), so
// the test exercises the exact failure mode the Env layer models —
// read-path rot on an intact disk — rather than editing bytes on disk.

class ProbeModel : public fl::RecoveryModel {
 public:
  explicit ProbeModel(Rng* rng) {
    w_ = nn::Tensor::Variable(
        nn::Matrix::Full(1, 1, rng != nullptr ? rng->Uniform(-1, 1) : 0.0));
    params_.Register("w", w_);
  }

  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool /*training*/, Rng* /*rng*/) override {
    nn::Matrix target(1, 1);
    target(0, 0) = static_cast<nn::Scalar>(trajectory.ground_truth.driver_id);
    fl::ForwardResult result;
    result.loss = nn::MseLoss(w_, target);
    result.representation = w_;
    return result;
  }

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    return std::vector<roadnet::PointPosition>(trajectory.size(),
                                               roadnet::PointPosition{0, 0.0});
  }

 private:
  std::string name_ = "Probe";
  nn::ParameterSet params_;
  nn::Tensor w_;
};

std::unique_ptr<fl::RecoveryModel> MakeProbe(Rng* rng) {
  return std::make_unique<ProbeModel>(rng);
}

std::vector<traj::ClientDataset> MakeFallbackClients(uint64_t seed) {
  Rng rng(seed);
  roadnet::CityGridOptions grid;
  grid.rows = 6;
  grid.cols = 6;
  const roadnet::RoadNetwork net = roadnet::GenerateCityGrid(grid, &rng);
  traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  profile.trajectories_per_client = 6;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = 4;
  return traj::GenerateFederatedWorkload(net, profile, workload, &rng);
}

TEST(SnapshotFallback, BitrottenNewestSnapshotFallsBackToOlderValidOne) {
  auto clients = MakeFallbackClients(71);
  fl::FederatedTrainerOptions options;
  options.rounds = 6;
  options.local_epochs = 1;
  options.learning_rate = 0.05;
  options.faults.dropout_rate = 0.2;
  options.tolerance.retry.max_retries = 1;
  options.durability.dir = "run";
  options.durability.snapshot_every = 2;
  options.durability.keep_snapshots = 3;

  FaultyFileSystem fs;  // clean RAM disk; only the targeted rot below
  options.durability.fs = &fs;
  fl::FederatedTrainer first(MakeProbe, &clients, options);
  const fl::FederatedRunResult expected = first.Run();
  const std::vector<nn::Scalar> expected_params =
      first.global_model()->params().Flatten();

  // The newest snapshot's next read returns one flipped bit. The CRC
  // must reject it and resume must fall back to the round-4 snapshot,
  // then re-run rounds 5..6 to a bitwise-identical final model.
  fs.InjectBitrotOnce(fl::SnapshotPath("run", 6));
  fl::FederatedTrainer resumed(MakeProbe, &clients, options);
  ASSERT_TRUE(resumed.ResumeFrom("run").ok());
  EXPECT_EQ(resumed.resumed_round(), 4);
  EXPECT_EQ(fs.stats().bitrot_reads, 1);

  const fl::FederatedRunResult result = resumed.Run();
  EXPECT_EQ(expected_params, resumed.global_model()->params().Flatten());
  ASSERT_EQ(result.history.size(), expected.history.size());
  for (size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(result.history[i].round, expected.history[i].round);
    EXPECT_EQ(result.history[i].mean_train_loss,
              expected.history[i].mean_train_loss);
    EXPECT_EQ(result.history[i].drops, expected.history[i].drops);
  }
  EXPECT_EQ(result.faults.drops, expected.faults.drops);
}

TEST(SnapshotFallback, AllSnapshotsRottenIsAnErrorNotAFreshStart) {
  auto clients = MakeFallbackClients(73);
  fl::FederatedTrainerOptions options;
  options.rounds = 4;
  options.local_epochs = 1;
  options.durability.dir = "run";
  options.durability.snapshot_every = 2;
  options.durability.keep_snapshots = 4;

  FaultyFileSystem fs;
  options.durability.fs = &fs;
  {
    fl::FederatedTrainer first(MakeProbe, &clients, options);
    first.Run();
  }
  fs.InjectBitrotOnce(fl::SnapshotPath("run", 2));
  fs.InjectBitrotOnce(fl::SnapshotPath("run", 4));
  fl::FederatedTrainer resumed(MakeProbe, &clients, options);
  EXPECT_FALSE(resumed.ResumeFrom("run").ok());
  EXPECT_EQ(resumed.resumed_round(), 0);
}

}  // namespace
}  // namespace lighttr

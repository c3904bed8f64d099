#include "fl/run_state.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <sstream>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/env.h"

namespace lighttr::fl {

namespace {

constexpr char kMagic[4] = {'L', 'T', 'R', 'S'};
// v1: original layout (PR 3). v2 appends the self-healing tail (extra
// FaultStats counters, reputation + monitor blobs, escalation latch)
// after the optimizer blobs. v3 appends the wire-transport tail (the
// six net fault counters + the channel RNG stream). v4 appends the
// storage-fault counter. v5 appends the adversary tail (poisoned/
// suspected counters + adversary engine blob + norm-bound window).
// Each version's shared prefix is byte-identical, and older snapshots
// still decode with the newer tails left at defaults.
constexpr uint32_t kVersion = 5;
constexpr uint32_t kMinVersion = 1;
constexpr char kJournalName[] = "journal.log";
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".ltrs";

std::string JournalPath(const std::string& dir) {
  return dir + "/" + kJournalName;
}

// One journal line: the kRoundColumns fields (fl/comm_stats.h),
// space-separated, followed by the CRC-32 (8 hex digits) of everything
// before the final space. Doubles use %.17g so the text round-trips
// bit-exactly. The parser accepts any line with at least the
// kJournalV1Columns original fields and ignores unknown trailing fields,
// so journals written by newer builds (with further columns) still load.
std::string FormatJournalBody(const RoundRecord& r) {
  std::string body;
  char buf[32];
  for (const RoundColumn& column : kRoundColumns) {
    if (column.double_field != nullptr) {
      std::snprintf(buf, sizeof(buf), "%.17g", r.*column.double_field);
    } else {
      std::snprintf(buf, sizeof(buf), "%d", IntColumnValue(column, r));
    }
    if (!body.empty()) body += ' ';
    body += buf;
  }
  return body;
}

bool ParseJournalLine(const std::string& line, RoundRecord* out) {
  const size_t last_space = line.rfind(' ');
  if (last_space == std::string::npos) return false;
  const std::string body = line.substr(0, last_space);
  const std::string crc_text = line.substr(last_space + 1);
  if (crc_text.size() != 8) return false;
  char* end = nullptr;
  const unsigned long crc_claim = std::strtoul(crc_text.c_str(), &end, 16);
  if (end != crc_text.c_str() + crc_text.size()) return false;
  if (static_cast<uint32_t>(crc_claim) != Crc32(body)) return false;

  std::istringstream tokens(body);
  std::vector<std::string> field;
  std::string token;
  while (tokens >> token) field.push_back(token);
  // The v1 fields are mandatory; anything beyond the columns this build
  // knows is tolerated (forward compatibility with newer builds that
  // append further columns — the CRC already vouches for them). Columns
  // an older line lacks stay at their defaults.
  if (field.size() < kJournalV1Columns) return false;
  const size_t present = std::min(field.size(), std::size(kRoundColumns));
  for (size_t i = 0; i < present; ++i) {
    const RoundColumn& column = kRoundColumns[i];
    const char* text = field[i].c_str();
    char* parsed_end = nullptr;
    if (column.double_field != nullptr) {
      out->*column.double_field = std::strtod(text, &parsed_end);
    } else {
      const int value = static_cast<int>(std::strtoll(text, &parsed_end, 10));
      if (column.int_field != nullptr) {
        out->*column.int_field = value;
      } else {
        out->*column.bool_field = value != 0;
      }
    }
    if (parsed_end != text + field[i].size()) return false;
  }
  return true;
}

std::string FormatJournalLine(const RoundRecord& r) {
  const std::string body = FormatJournalBody(r);
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(body));
  return body + " " + crc + "\n";
}

// The counters a snapshot tail carries, in kFaultCounters order.
void WriteCounters(BinaryWriter* writer, const FaultStats& faults,
                   CounterTail tail) {
  for (const FaultCounter& counter : kFaultCounters) {
    if (counter.tail == tail) writer->WriteI64(faults.*counter.total);
  }
}

Status ReadCounters(BinaryReader* reader, CounterTail tail,
                    FaultStats* faults) {
  for (const FaultCounter& counter : kFaultCounters) {
    if (counter.tail == tail) {
      LIGHTTR_RETURN_NOT_OK(reader->ReadI64(&(faults->*counter.total)));
    }
  }
  return Status::Ok();
}

/// Parent directory of `path` ("" when there is none to create).
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return std::string();
  return path.substr(0, slash);
}

}  // namespace

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kBeforeSave: return "before-save";
    case CrashPoint::kMidSave: return "mid-save";
    case CrashPoint::kAfterSave: return "after-save";
    case CrashPoint::kMidRound: return "mid-round";
  }
  return "unknown";
}

void MaybeInjectCrash(const DurabilityConfig& config, CrashPoint point,
                      int round) {
  if (config.crash_point == point && config.crash_round == round &&
      point != CrashPoint::kNone) {
    throw InjectedCrash{point, round};
  }
}

std::string EncodeRunState(const ServerRunState& state) {
  BinaryWriter writer;
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU32(kVersion);
  writer.WriteU32(static_cast<uint32_t>(state.round));
  writer.WriteString(state.rng_state);
  writer.WriteString(state.fault_rng_state);
  writer.WriteI64(state.comm.bytes_downlink);
  writer.WriteI64(state.comm.bytes_uplink);
  writer.WriteI64(state.comm.messages);
  writer.WriteI64(state.comm.rounds);
  WriteCounters(&writer, state.faults, CounterTail::kCore);
  writer.WriteF64(state.faults.simulated_backoff_s);
  writer.WriteString(state.global_params_blob);
  writer.WriteU32(static_cast<uint32_t>(state.optimizer_blobs.size()));
  for (const std::string& blob : state.optimizer_blobs) {
    writer.WriteString(blob);
  }
  // v2 self-healing tail. Appended last so the v1 prefix stays
  // byte-identical.
  WriteCounters(&writer, state.faults, CounterTail::kHealing);
  writer.WriteString(state.reputation_blob);
  writer.WriteString(state.monitor_blob);
  writer.WriteU8(state.escalated ? 1 : 0);
  // v3 wire-transport tail.
  WriteCounters(&writer, state.faults, CounterTail::kTransport);
  writer.WriteString(state.net_rng_state);
  // v4 storage-fault tail.
  WriteCounters(&writer, state.faults, CounterTail::kStorage);
  // v5 adversary tail.
  WriteCounters(&writer, state.faults, CounterTail::kAdversary);
  writer.WriteString(state.adversary_blob);
  writer.WriteString(state.normbound_blob);
  std::string out = writer.Take();
  AppendCrc32Trailer(&out);
  return out;
}

Status DecodeRunState(const std::string& bytes, ServerRunState* state) {
  LIGHTTR_CHECK(state != nullptr);
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t)) {
    return Status::InvalidArgument("run-state snapshot too short");
  }
  // Integrity first: nothing is interpreted until the whole-file CRC
  // proves the bytes are exactly what was written.
  size_t body_len = 0;
  if (!CheckCrc32Trailer(bytes, &body_len).ok()) {
    return Status::InvalidArgument(
        "run-state snapshot failed CRC check (truncated or corrupted)");
  }
  const std::string body = bytes.substr(0, body_len);

  BinaryReader reader(body);
  char magic[4];
  LIGHTTR_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad run-state magic");
  }
  uint32_t version = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported run-state version " +
                                   std::to_string(version));
  }
  uint32_t round = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&round));
  state->round = static_cast<int>(round);
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->rng_state));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->fault_rng_state));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.bytes_downlink));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.bytes_uplink));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.messages));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.rounds));
  LIGHTTR_RETURN_NOT_OK(
      ReadCounters(&reader, CounterTail::kCore, &state->faults));
  LIGHTTR_RETURN_NOT_OK(reader.ReadF64(&state->faults.simulated_backoff_s));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->global_params_blob));
  uint32_t opt_count = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&opt_count));
  state->optimizer_blobs.clear();
  for (uint32_t i = 0; i < opt_count; ++i) {
    std::string blob;
    LIGHTTR_RETURN_NOT_OK(reader.ReadString(&blob));
    state->optimizer_blobs.push_back(std::move(blob));
  }
  if (version >= 2) {
    LIGHTTR_RETURN_NOT_OK(
        ReadCounters(&reader, CounterTail::kHealing, &state->faults));
    LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->reputation_blob));
    LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->monitor_blob));
    uint8_t escalated = 0;
    LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&escalated));
    if (escalated > 1) {
      return Status::InvalidArgument("run-state snapshot: bad escalation flag");
    }
    state->escalated = escalated != 0;
  }
  if (version >= 3) {
    LIGHTTR_RETURN_NOT_OK(
        ReadCounters(&reader, CounterTail::kTransport, &state->faults));
    LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->net_rng_state));
  }
  if (version >= 4) {
    LIGHTTR_RETURN_NOT_OK(
        ReadCounters(&reader, CounterTail::kStorage, &state->faults));
  }
  if (version >= 5) {
    LIGHTTR_RETURN_NOT_OK(
        ReadCounters(&reader, CounterTail::kAdversary, &state->faults));
    LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->adversary_blob));
    LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->normbound_blob));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in run-state snapshot");
  }
  return Status::Ok();
}

Status SaveRunState(FileSystem* fs, const std::string& path,
                    const ServerRunState& state) {
  LIGHTTR_CHECK(fs != nullptr);
  const std::string parent = ParentDir(path);
  if (!parent.empty()) {
    Status created = fs->CreateDirs(parent);
    if (!created.ok()) {
      return Status::IoError("cannot create snapshot directory " + parent +
                             ": " + created.message());
    }
  }
  return fs->WriteFileAtomic(path, EncodeRunState(state));
}

Status SaveRunState(const std::string& path, const ServerRunState& state) {
  return SaveRunState(RealFileSystemInstance(), path, state);
}

Result<ServerRunState> LoadRunState(FileSystem* fs, const std::string& path) {
  LIGHTTR_CHECK(fs != nullptr);
  Result<std::string> contents = fs->ReadFile(path);
  if (!contents.ok()) return contents.status();
  ServerRunState state;
  LIGHTTR_RETURN_NOT_OK(DecodeRunState(contents.value(), &state));
  return state;
}

Result<ServerRunState> LoadRunState(const std::string& path) {
  return LoadRunState(RealFileSystemInstance(), path);
}

std::string SnapshotPath(const std::string& dir, int round) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06d%s", kSnapshotPrefix, round,
                kSnapshotSuffix);
  return dir + "/" + name;
}

Result<std::vector<int>> ListSnapshotRounds(FileSystem* fs,
                                            const std::string& dir) {
  LIGHTTR_CHECK(fs != nullptr);
  Result<std::vector<std::string>> names = fs->ListDir(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no snapshot directory at " + dir);
    }
    return names.status();
  }
  std::vector<int> rounds;
  for (const std::string& name : names.value()) {
    const size_t prefix_len = std::strlen(kSnapshotPrefix);
    const size_t suffix_len = std::strlen(kSnapshotSuffix);
    if (name.size() <= prefix_len + suffix_len) continue;
    if (name.compare(0, prefix_len, kSnapshotPrefix) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len, kSnapshotSuffix) !=
        0) {
      continue;  // includes in-flight "*.ltrs.tmp" partials
    }
    const std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    char* end = nullptr;
    const long long round = std::strtoll(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size() || round <= 0) continue;
    rounds.push_back(static_cast<int>(round));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds;
}

Result<std::vector<int>> ListSnapshotRounds(const std::string& dir) {
  return ListSnapshotRounds(RealFileSystemInstance(), dir);
}

void PruneSnapshots(FileSystem* fs, const std::string& dir, int keep) {
  LIGHTTR_CHECK(fs != nullptr);
  Result<std::vector<int>> rounds = ListSnapshotRounds(fs, dir);
  if (!rounds.ok()) return;  // nothing to prune
  const std::vector<int>& all = rounds.value();
  if (static_cast<int>(all.size()) <= keep) return;
  for (size_t i = 0; i + static_cast<size_t>(keep) < all.size(); ++i) {
    (void)fs->Remove(SnapshotPath(dir, all[i]));  // best-effort pruning
  }
}

void PruneSnapshots(const std::string& dir, int keep) {
  PruneSnapshots(RealFileSystemInstance(), dir, keep);
}

Status AppendJournalRecord(FileSystem* fs, const std::string& dir,
                           const RoundRecord& record) {
  LIGHTTR_CHECK(fs != nullptr);
  Status created = fs->CreateDirs(dir);
  if (!created.ok()) {
    return Status::IoError("cannot create journal directory " + dir + ": " +
                           created.message());
  }
  return fs->AppendToFile(JournalPath(dir), FormatJournalLine(record));
}

Status AppendJournalRecord(const std::string& dir, const RoundRecord& record) {
  return AppendJournalRecord(RealFileSystemInstance(), dir, record);
}

Result<std::vector<RoundRecord>> ReadJournal(FileSystem* fs,
                                             const std::string& dir) {
  LIGHTTR_CHECK(fs != nullptr);
  const std::string path = JournalPath(dir);
  if (!fs->Exists(path)) {
    return std::vector<RoundRecord>{};  // fresh directory: empty history
  }
  Result<std::string> contents = fs->ReadFile(path);
  if (!contents.ok()) return contents.status();
  std::vector<RoundRecord> records;
  std::istringstream lines(contents.value());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    RoundRecord record;
    if (!ParseJournalLine(line, &record)) {
      // A line that fails its CRC (or cannot parse) marks the torn
      // tail of a crashed append; everything after it is suspect.
      break;
    }
    records.push_back(record);
  }
  return records;
}

Result<std::vector<RoundRecord>> ReadJournal(const std::string& dir) {
  return ReadJournal(RealFileSystemInstance(), dir);
}

Status RewriteJournal(FileSystem* fs, const std::string& dir,
                      const std::vector<RoundRecord>& records) {
  LIGHTTR_CHECK(fs != nullptr);
  std::string contents;
  for (const RoundRecord& record : records) {
    contents += FormatJournalLine(record);
  }
  Status created = fs->CreateDirs(dir);
  if (!created.ok()) {
    return Status::IoError("cannot create journal directory " + dir + ": " +
                           created.message());
  }
  return fs->WriteFileAtomic(JournalPath(dir), contents);
}

Status RewriteJournal(const std::string& dir,
                      const std::vector<RoundRecord>& records) {
  return RewriteJournal(RealFileSystemInstance(), dir, records);
}

}  // namespace lighttr::fl

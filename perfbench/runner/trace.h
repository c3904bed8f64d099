// Tracing from the benchmark's own code: spans around the calls it
// makes into the library, a timing wrapper for the client-side update
// strategy, and a timing/counting wrapper for the durability
// filesystem. Nothing here changes what the library computes.
#ifndef LIGHTTR_PERFBENCH_TRACE_H_
#define LIGHTTR_PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "fl/federated_trainer.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// One closed interval of work.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Total length of the union of `intervals` clipped to [lo, hi].
double CoveredSeconds(std::vector<Interval> intervals, double lo, double hi);

/// In-memory span log. A span names the layer call it surrounds and the
/// span that was open when it began (-1 for a top-level span).
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Interval interval;
  };

  /// Opens a span; Close() must be called with the returned id before
  /// the enclosing span closes.
  int Open(const std::string& name);
  void Close(int id);

  /// Summed duration of every span called `name`.
  double Total(const std::string& name) const;

  /// Union length of the top-level spans inside [lo, hi].
  double TopLevelCovered(double lo, double hi) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log->Open(name)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Times every Update of a wrapped strategy. Keeps the strategy
/// thread-safety contract: the inner call runs unchanged on the calling
/// thread, and the only state shared across calls (the interval list)
/// is guarded by a mutex and never read by the inner strategy, so
/// results do not depend on the order clients run in.
class TimingUpdate : public lighttr::fl::LocalUpdateStrategy {
 public:
  /// `inner` must outlive this wrapper; null means plain FedAvg with
  /// `clip_norm`, as FederatedTrainer::Run uses when given no strategy.
  TimingUpdate(lighttr::fl::LocalUpdateStrategy* inner, double clip_norm);

  double Update(int client_index, lighttr::fl::RecoveryModel* model,
                lighttr::nn::Optimizer* optimizer,
                const lighttr::traj::ClientDataset& data, int epochs,
                lighttr::Rng* rng) override;

  /// Every Update interval recorded so far.
  std::vector<Interval> intervals() const;

  /// Summed Update time over all threads.
  double BusySeconds() const;

 private:
  lighttr::fl::PlainLocalUpdate plain_;
  lighttr::fl::LocalUpdateStrategy* inner_;
  mutable std::mutex mu_;
  std::vector<Interval> intervals_;  // guarded by mu_
};

/// Forwards every call to a wrapped filesystem and measures the write
/// path: time inside WriteFileAtomic / AppendToFile / SyncAll and the
/// bytes handed to the two writers.
class CountingFileSystem : public lighttr::FileSystem {
 public:
  /// `inner` must outlive this wrapper.
  explicit CountingFileSystem(lighttr::FileSystem* inner) : inner_(inner) {}

  [[nodiscard]] lighttr::Status WriteFileAtomic(
      const std::string& path, const std::string& contents) override;
  [[nodiscard]] lighttr::Status AppendToFile(
      const std::string& path, const std::string& contents) override;
  [[nodiscard]] lighttr::Result<std::string> ReadFile(
      const std::string& path) override;
  [[nodiscard]] lighttr::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  [[nodiscard]] lighttr::Status Remove(const std::string& path) override;
  [[nodiscard]] lighttr::Status CreateDirs(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  [[nodiscard]] lighttr::Status SyncAll() override;

  double write_seconds() const { return write_seconds_; }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  lighttr::FileSystem* inner_;
  // The trainer issues durability IO from its coordinating thread only
  // (see common/env.h), so these need no lock.
  double write_seconds_ = 0.0;
  int64_t bytes_written_ = 0;
};

}  // namespace perfbench

#endif  // LIGHTTR_PERFBENCH_TRACE_H_

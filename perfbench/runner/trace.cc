#include "trace.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double CoveredSeconds(std::vector<Interval> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double reach = lo;
  for (const Interval& interval : intervals) {
    const double start = std::max(interval.start, reach);
    const double end = std::min(interval.end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

int SpanLog::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.interval.start = NowSeconds();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int id) {
  spans_[static_cast<size_t>(id)].interval.end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.interval.end - span.interval.start;
  }
  return total;
}

double SpanLog::TopLevelCovered(double lo, double hi) const {
  std::vector<Interval> top;
  for (const Span& span : spans_) {
    if (span.parent < 0) top.push_back(span.interval);
  }
  return CoveredSeconds(std::move(top), lo, hi);
}

TimingUpdate::TimingUpdate(lighttr::fl::LocalUpdateStrategy* inner,
                           double clip_norm)
    : plain_(clip_norm), inner_(inner != nullptr ? inner : &plain_) {}

double TimingUpdate::Update(int client_index,
                            lighttr::fl::RecoveryModel* model,
                            lighttr::nn::Optimizer* optimizer,
                            const lighttr::traj::ClientDataset& data,
                            int epochs, lighttr::Rng* rng) {
  Interval interval;
  interval.start = NowSeconds();
  const double loss =
      inner_->Update(client_index, model, optimizer, data, epochs, rng);
  interval.end = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  intervals_.push_back(interval);
  return loss;
}

std::vector<Interval> TimingUpdate::intervals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return intervals_;
}

double TimingUpdate::BusySeconds() const {
  double busy = 0.0;
  for (const Interval& interval : intervals()) {
    busy += interval.end - interval.start;
  }
  return busy;
}

lighttr::Status CountingFileSystem::WriteFileAtomic(
    const std::string& path, const std::string& contents) {
  const double start = NowSeconds();
  lighttr::Status status = inner_->WriteFileAtomic(path, contents);
  write_seconds_ += NowSeconds() - start;
  bytes_written_ += static_cast<int64_t>(contents.size());
  return status;
}

lighttr::Status CountingFileSystem::AppendToFile(const std::string& path,
                                                 const std::string& contents) {
  const double start = NowSeconds();
  lighttr::Status status = inner_->AppendToFile(path, contents);
  write_seconds_ += NowSeconds() - start;
  bytes_written_ += static_cast<int64_t>(contents.size());
  return status;
}

lighttr::Result<std::string> CountingFileSystem::ReadFile(
    const std::string& path) {
  return inner_->ReadFile(path);
}

lighttr::Result<std::vector<std::string>> CountingFileSystem::ListDir(
    const std::string& dir) {
  return inner_->ListDir(dir);
}

lighttr::Status CountingFileSystem::Remove(const std::string& path) {
  return inner_->Remove(path);
}

lighttr::Status CountingFileSystem::CreateDirs(const std::string& dir) {
  return inner_->CreateDirs(dir);
}

bool CountingFileSystem::Exists(const std::string& path) {
  return inner_->Exists(path);
}

lighttr::Status CountingFileSystem::SyncAll() {
  const double start = NowSeconds();
  lighttr::Status status = inner_->SyncAll();
  write_seconds_ += NowSeconds() - start;
  return status;
}

}  // namespace perfbench

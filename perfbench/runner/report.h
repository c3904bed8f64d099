// Result record of one benchmark run and the one-line JSON it prints.
#ifndef LIGHTTR_PERFBENCH_REPORT_H_
#define LIGHTTR_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty list.
double Median(std::vector<double> values);

/// What one run reports: whether every correctness check held, how many
/// operations (federated rounds and trajectory recoveries) it attempted
/// and how many failed, and its metrics in the order they were added.
class Report {
 public:
  /// Records a failed correctness check; the run then reports
  /// correct=false. `what` goes to stderr.
  void Fail(const std::string& what);

  /// Records `attempted` operations of which `failed` failed.
  void CountOps(int64_t attempted, int64_t failed);

  /// Adds a metric.
  void Set(const std::string& name, double value, const std::string& unit);

  bool correct() const { return failures_.empty(); }

  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // LIGHTTR_PERFBENCH_REPORT_H_

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Traced runs write their spans here as JSON (empty: not written).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  /// Non-empty when the correctness gate failed: the run prints no
  /// result and exits non-zero.
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The result line: the end-to-end metrics of an untraced run, or the
  /// per-layer metrics every workload reports in a traced run.
  std::vector<Metric> metrics;
  /// The record line: sample counts, percentiles used, and the metrics
  /// that exist on this workload only.
  std::vector<Metric> details;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload in this process. Throws std::runtime_error when
/// the system under test cannot be set up.
Report RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

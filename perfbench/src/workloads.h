// The benchmark's four workloads. Each stands the program up from
// generated inputs, drives it through its HTTP front door with closed-loop
// clients for the requested number of seconds, checks every answer against
// the benchmark's own copy of the rows, and reports its metrics. In traced
// mode the same requests are replayed one layer boundary at a time instead.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the WAL, the disk table and the span file.
  std::string work_dir;
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed checks; the run is correct when this stays empty.
  std::vector<std::string> errors;
};

/// Names accepted by RunWorkload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// The benchmark's workloads (see perfbench/README.md for why each exists).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  double zipf_s;         // key skew of every column; 0 = uniform
  int64_t domain;        // values drawn from [0, domain)
  size_t updates;        // stream length: part of the workload's definition
  size_t shards;
  bool compiled;         // compiled backend (else the interpreter)
  bool count_query;      // also registers the per-customer order count
  bool durable;          // WAL with fsync every window, periodic checkpoints
  double offered_rate;   // open-loop writer, updates/s; 0 = closed loop
  double fresh_limit_ms; // an update readable later than this fails
  int threads;           // threads the workload runs, the program's included
};

const std::vector<WorkloadSpec>& Workloads();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space for native caches and WAL dirs
};

struct RunResult {
  bool correct = true;
  std::string error;  // first failed output check
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;      // end-to-end, or per-layer when traced
  std::vector<std::string> report;  // human-readable lines
};

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

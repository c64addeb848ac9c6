// The benchmark's workloads and the result every run reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  // hardware threads the run may keep busy
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;  // measured with tracing off
  std::vector<Metric> per_layer;   // reported by the traced run
  std::vector<std::string> errors;  // failed correctness checks
  std::vector<std::string> notes;   // informational lines
  TraceLog trace;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

bool is_wire_workload(const std::string& name);
bool is_pipeline_workload(const std::string& name);

RunResult run_wire_workload(const RunOptions& opt);
RunResult run_pipeline_workload(const RunOptions& opt);

// Order statistics over a sample (copies; empty input gives 0).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);  // nearest rank
double mean(const std::vector<double>& v);

}  // namespace perfbench

// The benchmark's workloads. Each one generates its data from the seed,
// fits a TranAD detector, scores the test split offline, and serves streams
// through an open-loop and a closed-loop phase; they differ in width,
// transport, fleet shape and how much of the run goes to training.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "none";
  std::string source_digest = "none";
  std::string out_dir;
};

bool IsKnownWorkload(const std::string& name);

// Runs one workload and prints the report; returns the process exit code.
int RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

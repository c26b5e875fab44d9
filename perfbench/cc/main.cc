// perfbench: the repository benchmark. One command runs one workload and
// prints a detail line and, last, the result line:
//
//   perfbench --workload fleet_burst|socket_trickle --seed N
//             --seconds S --trace 0|1 [--commit ID] [--source-digest D]
//             [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics and writes the request spans to DIR/<workload>.spans.jsonl.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag);
      return 2;
    }
    const std::string value = argv[++i];
    if (!std::strcmp(flag, "--workload")) {
      args.workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      args.seconds = std::atof(value.c_str());
    } else if (!std::strcmp(flag, "--trace")) {
      args.trace = value == "1";
    } else if (!std::strcmp(flag, "--commit")) {
      args.commit = value;
    } else if (!std::strcmp(flag, "--source-digest")) {
      args.source_digest = value;
    } else if (!std::strcmp(flag, "--out-dir")) {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag);
      return 2;
    }
  }
  if (!perfbench::IsKnownWorkload(args.workload)) {
    std::fprintf(stderr,
                 "perfbench: --workload must be fleet_burst or socket_trickle\n");
    return 2;
  }
  if (!(args.seconds >= 1.0 && args.seconds <= 60.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be in [1, 60]\n");
    return 2;
  }
  return perfbench::RunWorkload(args);
}

// perfbench: one benchmark binary for Arthas, one workload per invocation.
//
//   perfbench --workload {serve_read,write_churn,fault_matrix} --seed N
//             --seconds S --trace {0,1} [--span-file PATH]
//
// Prints one JSON object as the last line of stdout: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). perfbench/run.py builds this binary and filters its
// metrics down to the ones BENCHMARK.json declares.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"
#include "common/logging.h"
#include "workloads.h"

namespace {

void Usage() {
  std::cerr << "usage: perfbench --workload {serve_read,write_churn,"
               "fault_matrix} --seed N --seconds S --trace {0,1} "
               "[--span-file PATH]\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--span-file") {
      args.span_file = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (args.seconds <= 0) {
    Usage();
    return 2;
  }
  // The library's debug chatter would only slow the measured loops down.
  arthas::SetLogLevel(arthas::LogLevel::kWarning);

  perfbench::Result result;
  if (args.workload == "serve_read") {
    perfbench::RunServeRead(args, &result);
  } else if (args.workload == "write_churn") {
    perfbench::RunWriteChurn(args, &result);
  } else if (args.workload == "fault_matrix") {
    perfbench::RunFaultMatrix(args, &result);
  } else {
    Usage();
    return 2;
  }
  std::cout << result.Json() << std::endl;
  return 0;
}

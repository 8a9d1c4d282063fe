// adaptbench: runs one adaptation-cycle workload and prints its metrics.
//
//   adaptbench --workload fleet_metrics|failure_storm|scope_churn
//              [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//              [--trace-out FILE] [--commit SHA]
//
// Output: a provenance line, a detail line (sample counts, parameters,
// mismatches) and, last, {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the usual entry point.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: adaptbench --workload fleet_metrics|failure_storm|"
               "scope_churn [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke] [--trace-out FILE] [--commit SHA]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--trace-out") {
      options.trace_path = value();
    } else if (arg == "--commit") {
      commit = value();
    } else {
      Usage();
      return 2;
    }
  }
  if (!(options.seconds > 0) || options.seconds > 600) {
    std::fprintf(stderr, "--seconds must be in (0, 600]\n");
    return 2;
  }

  perfbench::Tracer tracer;
  perfbench::Report report;
  if (options.workload == "fleet_metrics") {
    report = perfbench::RunFleetMetrics(options, &tracer);
  } else if (options.workload == "failure_storm") {
    report = perfbench::RunFailureStorm(options, &tracer);
  } else if (options.workload == "scope_churn") {
    report = perfbench::RunScopeChurn(options, &tracer);
  } else {
    Usage();
    return 2;
  }
  if (options.trace && !options.trace_path.empty() &&
      !tracer.WriteJsonl(options.trace_path)) {
    report.Mismatch("could not write " + options.trace_path);
  }

  std::printf(
      "{\"provenance\": {\"nproc\": %u, \"compiler\": \"%s\", "
      "\"compiler_version\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"commit\": \"%s\"}}\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER, __VERSION__,
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, commit.c_str());
  perfbench::PrintReport(report, options, options.trace);
  return 0;
}

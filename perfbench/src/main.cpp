// raptee_perfbench: runs one benchmark workload and prints one JSON line,
// {"correct", "attempted", "failed", "metrics", "record"}. perfbench/run.py
// builds this binary, runs it, validates the metrics against
// BENCHMARK.json and prints the result line.
//
//   raptee_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --digests <path>
//   raptee_perfbench --record <path>   (re-record the simulation digests)
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "scenario/knobs.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: raptee_perfbench --workload raptee_sealed_wan|service_open_loop"
               " --seed N --seconds S --trace 0|1 --digests PATH\n"
               "       raptee_perfbench --record PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string workload, record_path;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 == argc) return usage();
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = raptee::scenario::parse_u64("--seed", value.c_str(), 0,
                                                   ~std::uint64_t{0});
      } else if (flag == "--seconds") {
        options.seconds = raptee::scenario::parse_double("--seconds", value.c_str(), 0.1, 600.0);
      } else if (flag == "--trace") {
        options.trace = raptee::scenario::parse_u64("--trace", value.c_str(), 0, 1) == 1;
      } else if (flag == "--digests") {
        options.digests = value;
      } else if (flag == "--record") {
        record_path = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  try {
    if (!record_path.empty()) {
      const std::string table = record_digests();
      std::ofstream(record_path) << table;
      return 0;
    }
    RunResult result;
    if (workload == "raptee_sealed_wan") {
      result = run_raptee_sealed_wan(options);
    } else if (workload == "service_open_loop") {
      result = run_service_open_loop(options);
    } else {
      return usage();
    }
    result.record.field("workload", workload)
        .field("seed", options.seed)
        .field("trace", options.trace)
        .field("compiler", "g++ " __VERSION__)
        .field("build_type", PERFBENCH_BUILD_TYPE);
    const std::string line = raptee::metrics::JsonObject()
                                 .field("correct", result.correct)
                                 .field("attempted", result.attempted)
                                 .field("failed", result.failed)
                                 .field_raw("metrics", result.metrics.json())
                                 .field_raw("record", result.record.str())
                                 .str();
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "raptee_perfbench: %s\n", e.what());
    return 1;
  }
}

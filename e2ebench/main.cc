// The end-to-end benchmark binary (run through run.py):
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// Prints one JSON line of run details, then as its last line the result:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// RTSI_BENCH_SCALE=<f> shrinks every size (0.01 finishes in seconds).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  if (const char* scale = std::getenv("RTSI_BENCH_SCALE")) {
    const double value = std::atof(scale);
    if (value > 0.0) options.scale = value;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.workload.empty() || options.seconds <= 0.0) {
    return Usage(argv[0]);
  }

  e2ebench::Outcome outcome;
  std::string error;
  if (!e2ebench::RunWorkload(options, outcome, error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "e2ebench: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", outcome.meta_json.c_str());
  const std::uint64_t attempted = outcome.search.attempted +
                                  outcome.ingest.attempted +
                                  outcome.probe.attempted;
  const std::uint64_t failed =
      outcome.search.failed + outcome.ingest.failed + outcome.probe.failed;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const e2ebench::Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

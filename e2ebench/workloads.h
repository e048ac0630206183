// The benchmark's two workloads. Each preloads the same archive into two
// embedded SearchServices, each behind its own epoll AsyncHttpServer, and
// drives them over loopback from this process, pinned with every thread
// it starts to one CPU:
//
//   search_archive  1 shard: open-loop and closed-loop /search on one
//                   service, windows and freshness probes through
//                   POST /ingest on the other, in alternating rounds.
//   search_sharded  the same corpus, queries, windows and schedule on 4
//                   shards.
//
// Untraced runs report end-to-end metrics; traced runs (Options::trace)
// replay the query sequence and the preload in-process, timing calls into
// each layer's public functions from outside, and report per-layer
// metrics. See README.md for the metric table and sizes.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Traced runs write their spans here if set.
  double scale = 1.0;     // RTSI_BENCH_SCALE: shrinks every size.
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Attempted/failed counts of one operation type.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Outcome {
  bool correct = true;
  OpCount search;
  OpCount ingest;
  OpCount probe;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // First few check failures.
  std::string meta_json;            // Run details, one JSON object.
};

/// Runs one workload. Returns false (with a message in `error`) for an
/// unknown workload or a server that fails to start.
bool RunWorkload(const Options& options, Outcome& outcome,
                 std::string& error);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_

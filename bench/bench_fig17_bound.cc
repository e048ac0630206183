// Figure 17: effectiveness of the top-k upper bound — mean query latency
// versus the number of audio streams, with the bound enabled and
// disabled. The paper's finding: with the bound, query time stays nearly
// flat as the index grows.
//
// The bound is the one sound regime (core/config.h): the global maximum
// popularity plus each component's live-freshness ceiling, so pruning
// never changes the result set. The nobound pass is the full walk
// (SetUseBound(false)) over the same index and queries; every query's
// result checksum is compared between the two passes, and the bench
// exits nonzero when any query diverges.
//
// Skip headers (Bloom + summary bounds + admission screen) are consulted
// in both passes; the admission screen is gated on use_bound, so it is
// off in the nobound pass. The per-pass skipped/visited/screened counters
// land in BENCH_fig17_bound.json alongside latency.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/rtsi_index.h"
#include "workload/driver.h"
#include "workload/report.h"

namespace {

using namespace rtsi;

struct Mode {
  const char* name;
  bool use_bound;
};

constexpr Mode kModes[] = {
    {"bound", true},
    {"nobound", false},
};
constexpr std::size_t kNumModes = sizeof(kModes) / sizeof(kModes[0]);

struct Row {
  double mean_micros[kNumModes] = {};
  core::QueryStats stats[kNumModes] = {};  // summed over the pass
  std::size_t divergent = 0;  // Queries whose bound and full-walk answers
                              // differ.
};

Row Run(std::size_t num_streams, std::size_t num_queries) {
  const workload::SyntheticCorpus corpus(
      bench::DefaultCorpusConfig(num_streams));
  core::RtsiIndex index(bench::DefaultIndexConfig());
  SimulatedClock clock;
  workload::InitializeIndex(index, corpus, 0, num_streams, clock);

  Row row{};
  std::vector<std::uint64_t> checksums[kNumModes];
  for (std::size_t m = 0; m < kNumModes; ++m) {
    index.SetUseBound(kModes[m].use_bound);
    workload::QueryGenerator gen(
        bench::DefaultQueryConfig(corpus.vocab_size()));
    LatencyStats stats;
    Stopwatch watch;
    core::QueryStats& sum = row.stats[m];
    checksums[m].reserve(num_queries);
    for (std::size_t i = 0; i < num_queries; ++i) {
      const auto q = gen.Next();
      core::QueryStats qs;
      watch.Restart();
      const auto results = index.Query(q, 10, clock.Now(), &qs);
      stats.Record(watch.ElapsedMicros());
      checksums[m].push_back(bench::ResultChecksum(results));
      sum.components_visited += qs.components_visited;
      sum.components_pruned += qs.components_pruned;
      sum.components_skipped += qs.components_skipped;
      sum.bloom_false_positives += qs.bloom_false_positives;
      sum.candidates_screened += qs.candidates_screened;
      sum.candidates_scored += qs.candidates_scored;
    }
    row.mean_micros[m] = stats.mean_micros();
  }
  for (std::size_t i = 0; i < num_queries; ++i) {
    if (checksums[0][i] != checksums[1][i]) {
      if (row.divergent == 0) {
        std::fprintf(stderr, "DIVERGENCE streams=%zu query=%zu\n",
                     num_streams, i);
      }
      ++row.divergent;
    }
  }
  return row;
}

}  // namespace

int main() {
  const std::size_t num_queries = bench::Scaled(1000);
  workload::ReportTable table(
      "Figure 17: query latency with the top-k bound on and off "
      "(diverged = queries whose pruned answer differs from the full walk)",
      {"#streams", "bound", "nobound", "speedup", "pruned",
       "skipped/visited", "diverged"});

  bench::JsonReport report("fig17_bound");
  report.Field("scale", bench::Scale());
  report.Field("queries_per_point", static_cast<double>(num_queries));
  report.Field("k", 10.0);

  std::size_t divergent = 0;
  for (const std::size_t base : {1000, 2000, 4000, 8000}) {
    const std::size_t n = bench::Scaled(base);
    const Row row = Run(n, num_queries);
    divergent += row.divergent;
    table.AddRow(
        {std::to_string(n), workload::FormatMicros(row.mean_micros[0]),
         workload::FormatMicros(row.mean_micros[1]),
         workload::FormatDouble(row.mean_micros[1] / row.mean_micros[0], 2) +
             "x",
         std::to_string(row.stats[0].components_pruned),
         std::to_string(row.stats[0].components_skipped) + "/" +
             std::to_string(row.stats[0].components_visited),
         std::to_string(row.divergent) + "/" + std::to_string(num_queries)});

    for (std::size_t m = 0; m < kNumModes; ++m) {
      auto& json_row = report.AddRow();
      json_row.Field("streams", static_cast<double>(n))
          .Field("mode", kModes[m].name)
          .Field("mean_us", row.mean_micros[m])
          .Field("components_visited",
                 static_cast<double>(row.stats[m].components_visited))
          .Field("components_pruned",
                 static_cast<double>(row.stats[m].components_pruned))
          .Field("components_skipped",
                 static_cast<double>(row.stats[m].components_skipped))
          .Field("bloom_false_positives",
                 static_cast<double>(row.stats[m].bloom_false_positives))
          .Field("candidates_screened",
                 static_cast<double>(row.stats[m].candidates_screened))
          .Field("candidates_scored",
                 static_cast<double>(row.stats[m].candidates_scored))
          .Field("diverged_vs_full_walk", static_cast<double>(row.divergent));
    }
  }
  table.Print();
  report.Write("BENCH_fig17_bound.json");
  if (divergent > 0) {
    std::fprintf(stderr,
                 "error: %zu bound-pruned answers differ from the full walk\n",
                 divergent);
    return 1;
  }
  return 0;
}

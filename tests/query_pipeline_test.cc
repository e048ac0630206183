// Parity suite for the unified query-execution pipeline (exec::).
//
// Every query path in the repo — Query, explain, the LSII baseline, and
// the sharded scatter-gather — drives the same exec::QueryPlan + operator
// chain, so this suite pins the one invariant the refactor must preserve:
// bit-identical top-k (streams AND scores) and identical QueryStats
// across the whole configuration matrix (filter × bound on/off × skip
// header × merge policy × k range), each row checked against a full-walk
// oracle that disables every pruning and skipping mechanism. A stress
// test races queries against ingest, async merges and popularity updates
// (run under TSan via the concurrency label).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baseline/lsii_index.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/rtsi_index.h"
#include "exec/query_plan.h"
#include "exec/sink.h"
#include "service/search_service.h"
#include "shard/shard_set.h"

namespace rtsi::core {
namespace {

RtsiConfig PipelineConfig(bool use_bound, bool use_skip_header,
                          lsm::MergePolicy policy = lsm::MergePolicy::kGeometric) {
  RtsiConfig config;
  config.lsm.delta = 300;  // Small: the workloads below seal many components.
  config.lsm.rho = 1.5;
  config.lsm.num_l0_shards = 4;
  config.lsm.policy = policy;
  config.use_bound = use_bound;
  config.use_skip_header = use_skip_header;
  return config;
}

// Drives one randomized insert/finish/delete/update workload into every
// index, so they end up with identical content.
void BuildWorkload(const std::vector<SearchIndex*>& indices, int seed,
                   Timestamp* end_time) {
  Rng rng(seed);
  constexpr int kNumStreams = 120;
  constexpr int kVocab = 50;
  Timestamp t = 1000;
  for (int step = 0; step < 900; ++step) {
    t += kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(rng.NextUint64(kNumStreams));
    const double action = rng.NextDouble();
    if (action < 0.85) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      const int num_terms = 1 + static_cast<int>(rng.NextUint64(6));
      for (int i = 0; i < num_terms; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
        if (!used.insert(term).second) continue;
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
      }
      const bool live = rng.NextBool(0.5);
      for (SearchIndex* index : indices) {
        index->InsertWindow(stream, t, terms, live);
        if (!live) index->FinishStream(stream);
      }
    } else if (action < 0.93) {
      const std::uint64_t delta = 1 + rng.NextUint64(50);
      for (SearchIndex* index : indices) {
        index->UpdatePopularity(stream, delta);
      }
    } else {
      for (SearchIndex* index : indices) index->DeleteStream(stream);
    }
  }
  *end_time = t;
}

// Like BuildWorkload, but a stream id retired by FinishStream or
// DeleteStream is never touched again — the legal sharded workload shape
// (the id-reuse guard would otherwise drop windows a single index keeps).
void BuildNoReuseWorkload(const std::vector<SearchIndex*>& indices, int seed,
                          Timestamp* end_time) {
  Rng rng(seed);
  constexpr int kNumStreams = 120;
  constexpr int kVocab = 50;
  std::set<StreamId> retired;
  Timestamp t = 1000;
  for (int step = 0; step < 900; ++step) {
    t += kMicrosPerSecond;
    const auto stream = static_cast<StreamId>(rng.NextUint64(kNumStreams));
    const double action = rng.NextDouble();
    if (retired.count(stream) > 0) continue;
    if (action < 0.85) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      const int num_terms = 1 + static_cast<int>(rng.NextUint64(6));
      for (int i = 0; i < num_terms; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
        if (!used.insert(term).second) continue;
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
      }
      const bool live = rng.NextBool(0.9);
      for (SearchIndex* index : indices) {
        index->InsertWindow(stream, t, terms, live);
        if (!live) index->FinishStream(stream);
      }
      if (!live) retired.insert(stream);
    } else if (action < 0.93) {
      const std::uint64_t delta = 1 + rng.NextUint64(50);
      for (SearchIndex* index : indices) {
        index->UpdatePopularity(stream, delta);
      }
    } else {
      for (SearchIndex* index : indices) index->DeleteStream(stream);
      retired.insert(stream);
    }
  }
  *end_time = t;
}

std::vector<TermId> RandomQuery(Rng& rng, int max_terms = 3) {
  std::vector<TermId> q;
  const int nterms = 1 + static_cast<int>(rng.NextUint64(max_terms));
  for (int i = 0; i < nterms; ++i) {
    q.push_back(static_cast<TermId>(rng.NextUint64(50)));
  }
  if (rng.NextBool(0.2)) q.push_back(q.front());  // Duplicate term.
  return q;
}

void ExpectBitIdentical(const std::vector<ScoredStream>& got,
                        const std::vector<ScoredStream>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream, want[i].stream) << context << " rank " << i;
    // Bit-identical, not approximately equal: every path runs the same
    // exec:: score computation, only the traversal schedule differs.
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

void ExpectSameStats(const QueryStats& got, const QueryStats& want,
                     const std::string& context) {
  EXPECT_EQ(got.components_visited, want.components_visited) << context;
  EXPECT_EQ(got.components_pruned, want.components_pruned) << context;
  EXPECT_EQ(got.components_skipped, want.components_skipped) << context;
  EXPECT_EQ(got.bloom_false_positives, want.bloom_false_positives) << context;
  EXPECT_EQ(got.postings_scanned, want.postings_scanned) << context;
  EXPECT_EQ(got.candidates_scored, want.candidates_scored) << context;
  EXPECT_EQ(got.candidates_screened, want.candidates_screened) << context;
  EXPECT_EQ(got.terminated_early, want.terminated_early) << context;
}

// One row of the parity matrix: an index configuration whose answers
// must match the full-walk oracle bit for bit, for k drawn from
// [min_k, min_k + k_span).
struct MatrixRow {
  const char* name;
  bool use_bound;
  bool use_skip_header;
  lsm::MergePolicy policy;
  int min_k = 1;
  int k_span = 15;
};

class PipelineMatrixTest : public ::testing::TestWithParam<MatrixRow> {};

TEST_P(PipelineMatrixTest, MatchesFullWalkOracleBitwise) {
  const MatrixRow row = GetParam();
  auto config = PipelineConfig(row.use_bound, row.use_skip_header,
                               row.policy);
  // The oracle scores every posting of every component: no bound walk,
  // no skip headers. It shares the row's merge policy — a
  // stream's relevance accumulates within the component that discovers
  // it, so component structure is part of the score; what the oracle
  // removes is every skipping and pruning mechanism.
  auto oracle_config = PipelineConfig(/*use_bound=*/false,
                                      /*use_skip_header=*/false, row.policy);
  auto index = std::make_unique<RtsiIndex>(config);
  auto oracle = std::make_unique<RtsiIndex>(oracle_config);

  Timestamp t = 0;
  BuildWorkload({index.get(), oracle.get()}, /*seed=*/77, &t);
  // Full compaction folds everything into one component by design;
  // every other policy must leave a real multi-component cascade.
  const std::size_t min_components =
      row.policy == lsm::MergePolicy::kFullCompaction ? 1u : 2u;
  ASSERT_GE(index->tree().SealedSnapshot().size(), min_components)
      << "workload too small to exercise multi-component traversal";

  Rng rng(777);
  for (int qi = 0; qi < 60; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = row.min_k + static_cast<int>(rng.NextUint64(row.k_span));
    const std::string context =
        std::string(row.name) + " query " + std::to_string(qi);
    ExpectBitIdentical(index->Query(q, k, t), oracle->Query(q, k, t),
                       context);

    QueryFilter filter;
    filter.live_only = rng.NextBool(0.5);
    if (rng.NextBool(0.5)) filter.min_frsh = t / 2;
    ExpectBitIdentical(index->QueryFiltered(q, k, t, filter),
                       oracle->QueryFiltered(q, k, t, filter),
                       context + " filtered");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineMatrixTest,
    ::testing::Values(
        MatrixRow{"bound_skip", true, true, lsm::MergePolicy::kGeometric},
        MatrixRow{"bound_noskip", true, false,
                  lsm::MergePolicy::kGeometric},
        MatrixRow{"nobound_skip", false, true,
                  lsm::MergePolicy::kGeometric},
        MatrixRow{"bound_skip_tiered", true, true,
                  lsm::MergePolicy::kTiered},
        MatrixRow{"bound_skip_full", true, true,
                  lsm::MergePolicy::kFullCompaction},
        // Large k keeps the k-th score low, where a ceiling that
        // under-estimates a re-inserted stream's live freshness would
        // actually decide membership.
        MatrixRow{"bound_skip_large_k", true, true,
                  lsm::MergePolicy::kGeometric, /*min_k=*/10,
                  /*k_span=*/40}),
    [](const ::testing::TestParamInfo<MatrixRow>& info) {
      return std::string(info.param.name);
    });

// QueryStats must be a pure function of (index contents, query): the
// same query repeated — and the same query against an identically-built
// twin — reports identical counters. A stats divergence is how a
// traversal-order regression shows up before results drift.
TEST(PipelineStatsTest, StatsDeterministicAcrossRunsAndTwins) {
  auto config = PipelineConfig(/*use_bound=*/true, /*use_skip_header=*/true);
  auto index = std::make_unique<RtsiIndex>(config);
  auto twin = std::make_unique<RtsiIndex>(config);
  Timestamp t = 0;
  BuildWorkload({index.get(), twin.get()}, 21, &t);

  Rng rng(2121);
  for (int qi = 0; qi < 40; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(10));
    const std::string context = "stats query " + std::to_string(qi);
    QueryStats first, again, twin_stats;
    const auto results = index->Query(q, k, t, &first);
    ExpectBitIdentical(index->Query(q, k, t, &again), results, context);
    ExpectBitIdentical(twin->Query(q, k, t, &twin_stats), results, context);
    ExpectSameStats(again, first, context + " repeat");
    ExpectSameStats(twin_stats, first, context + " twin");
  }
}

// ExplainQuery is the sequential pipeline with a recording policy bolted
// on: its ranked results must be bit-identical to Query's, and each
// breakdown must decompose the reported score exactly.
TEST(PipelineExplainTest, ExplainResultsMatchQueryBitwise) {
  auto config = PipelineConfig(/*use_bound=*/true, /*use_skip_header=*/true);
  auto index = std::make_unique<RtsiIndex>(config);
  Timestamp t = 0;
  BuildWorkload({index.get()}, 33, &t);

  Rng rng(3333);
  for (int qi = 0; qi < 40; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(10));
    const std::string context = "explain query " + std::to_string(qi);
    const auto want = index->Query(q, k, t);
    const auto explained = index->ExplainQuery(q, k, t);
    ASSERT_EQ(explained.results.size(), want.size()) << context;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(explained.results[i].stream, want[i].stream)
          << context << " rank " << i;
      EXPECT_EQ(explained.results[i].total, want[i].score)
          << context << " rank " << i;
    }
  }
}

// The standing-query seam: BuildPlan + ExecutePlan through a TopKSink is
// exactly Query, and a sink carried across executions accumulates (the
// contract future standing queries / fuzzy expansion lean on).
TEST(PipelinePlanTest, ExecutePlanMatchesQueryAndSinkAccumulates) {
  auto config = PipelineConfig(/*use_bound=*/true, /*use_skip_header=*/true);
  auto index = std::make_unique<RtsiIndex>(config);
  Timestamp t = 0;
  BuildWorkload({index.get()}, 47, &t);

  Rng rng(4747);
  for (int qi = 0; qi < 20; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(10));
    const std::string context = "plan query " + std::to_string(qi);
    QueryStats want_stats, plan_stats;
    const auto want = index->Query(q, k, t, &want_stats);
    const auto plan = index->BuildPlan(q, k, t);
    exec::TopKSink sink(k);
    ExpectBitIdentical(index->ExecutePlan(plan, sink, &plan_stats), want,
                       context);
    ExpectSameStats(plan_stats, want_stats, context);

    // Re-execution keeps the sink's contents: re-running the same plan
    // into the same sink must not change what it holds.
    const auto again = index->ExecutePlan(plan, sink);
    ExpectBitIdentical(again, want, context + " re-executed");
  }
}

// Inserts, async merge cascades, popularity updates and deletions racing
// queries from several threads. Asserts structural sanity of every
// answer; the real assertion is a clean TSan run
// (tools/run_sanitizers.sh tsan).
TEST(PipelineConcurrencyTest, QueriesRaceIngestMergesAndUpdates) {
  auto config = PipelineConfig(/*use_bound=*/true, /*use_skip_header=*/true);
  config.lsm.delta = 500;
  config.async_merge = true;
  RtsiIndex index(config);

  std::atomic<bool> stop{false};
  std::atomic<Timestamp> now{1000};

  std::thread inserter([&] {
    Rng rng(101);
    for (int step = 0; step < 4000 && !stop.load(); ++step) {
      const Timestamp t = now.fetch_add(kMicrosPerSecond);
      const auto stream = static_cast<StreamId>(rng.NextUint64(200));
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 4; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(40));
        if (!used.insert(term).second) continue;
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
      }
      index.InsertWindow(stream, t, terms, rng.NextBool(0.6));
      if (rng.NextBool(0.05)) index.FinishStream(stream);
      if (rng.NextBool(0.02)) index.DeleteStream(stream);
    }
    stop.store(true);
  });

  std::thread updater([&] {
    Rng rng(202);
    while (!stop.load()) {
      index.UpdatePopularity(static_cast<StreamId>(rng.NextUint64(200)),
                             1 + rng.NextUint64(20));
    }
  });

  std::vector<std::thread> queriers;
  for (int qt = 0; qt < 3; ++qt) {
    queriers.emplace_back([&, qt] {
      Rng rng(303 + qt);
      while (!stop.load()) {
        std::vector<TermId> q = {
            static_cast<TermId>(rng.NextUint64(40)),
            static_cast<TermId>(rng.NextUint64(40))};
        const int k = 1 + static_cast<int>(rng.NextUint64(10));
        const auto results = index.Query(q, k, now.load());
        ASSERT_LE(results.size(), static_cast<std::size_t>(k));
        for (std::size_t i = 0; i < results.size(); ++i) {
          ASSERT_TRUE(std::isfinite(results[i].score));
          if (i > 0) {
            // Descending total order (score, then stream id).
            ASSERT_TRUE(results[i - 1].score > results[i].score ||
                        (results[i - 1].score == results[i].score &&
                         results[i - 1].stream < results[i].stream));
          }
        }
      }
    });
  }

  inserter.join();
  updater.join();
  for (auto& th : queriers) th.join();
  index.WaitForMerges();

  // The index still answers once quiescent.
  const auto results = index.Query({1, 2}, 10, now.load());
  for (const auto& r : results) EXPECT_TRUE(std::isfinite(r.score));
}

// The LSII baseline rides the same pipeline drivers; its bound-pruned
// walk must match its own full walk bit for bit (LSII semantics differ
// from RTSI — >= pruning, BigTable scores — so it gets its own oracle).
TEST(PipelineLsiiTest, LsiiBoundMatchesLsiiFullWalkBitwise) {
  auto bound_config =
      PipelineConfig(/*use_bound=*/true, /*use_skip_header=*/false);
  auto walk_config =
      PipelineConfig(/*use_bound=*/false, /*use_skip_header=*/false);
  auto bounded = std::make_unique<baseline::LsiiIndex>(bound_config);
  auto walker = std::make_unique<baseline::LsiiIndex>(walk_config);
  Timestamp t = 0;
  BuildWorkload({bounded.get(), walker.get()}, 61, &t);

  Rng rng(6161);
  for (int qi = 0; qi < 60; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(15));
    ExpectBitIdentical(bounded->Query(q, k, t), walker->Query(q, k, t),
                       "lsii query " + std::to_string(qi));
  }
}

// Sharded scatter-gather folds per-shard stats and gathers through the
// pipeline's sink; a 3-shard set must answer exactly like one unsharded
// index over the same streams.
TEST(PipelineShardTest, ShardedGatherMatchesUnshardedBitwise) {
  shard::ShardSetConfig shard_config;
  shard_config.index =
      PipelineConfig(/*use_bound=*/true, /*use_skip_header=*/true);
  shard_config.num_shards = 3;
  auto sharded = std::make_unique<shard::IndexShardSet>(shard_config);
  auto single = std::make_unique<RtsiIndex>(shard_config.index);
  Timestamp t = 0;
  // Legal sharded workload: retired ids are never reused (the guard
  // would drop the reuse on the sharded set only, forking the content).
  BuildNoReuseWorkload({sharded.get(), single.get()}, 83, &t);

  Rng rng(8383);
  for (int qi = 0; qi < 60; ++qi) {
    const auto q = RandomQuery(rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(15));
    ExpectBitIdentical(sharded->Query(q, k, t), single->Query(q, k, t),
                       "shard query " + std::to_string(qi));
  }
}

// Satellite: per-shard compaction-policy overrides flow from the
// ShardSetConfig down to each shard's LSM tree; unlisted shards keep the
// base policy.
TEST(ShardPolicyTest, PerShardPolicyOverridesApply) {
  shard::ShardSetConfig config;
  config.index = PipelineConfig(true, true);
  config.num_shards = 3;
  config.shard_policies = {lsm::MergePolicy::kTiered,
                           lsm::MergePolicy::kFullCompaction};
  shard::IndexShardSet shards(config);
  EXPECT_EQ(shards.shard_index(0).tree().policy(),
            lsm::MergePolicy::kTiered);
  EXPECT_EQ(shards.shard_index(1).tree().policy(),
            lsm::MergePolicy::kFullCompaction);
  // Beyond the override vector: the base config's policy.
  EXPECT_EQ(shards.shard_index(2).tree().policy(),
            config.index.lsm.policy);
}

// Satellite: the service-level override plumbs through both modalities.
TEST(ShardPolicyTest, ServiceConfigOverridesReachShards) {
  service::SearchServiceConfig config;
  config.index.lsm.delta = 500;
  config.ingestion.transcriber.word_error_rate = 0.0;
  config.shards = 2;
  config.shard_merge_policies = {lsm::MergePolicy::kGeometric,
                                 lsm::MergePolicy::kTiered};
  SimulatedClock clock;
  service::SearchService service(config, &clock);
  for (auto* shards : {&service.text_shards(), &service.sound_shards()}) {
    EXPECT_EQ(shards->shard_index(0).tree().policy(),
              lsm::MergePolicy::kGeometric);
    EXPECT_EQ(shards->shard_index(1).tree().policy(),
              lsm::MergePolicy::kTiered);
  }
}

// Satellite: the sharded id-reuse guard. Reusing a stream id after
// FinishStream/DeleteStream on a sharded set is a documented
// precondition violation — it must surface as FailedPrecondition (not
// undefined behavior), and the rejected window must index nothing.
TEST(ShardIdReuseTest, ShardedSetRejectsRetiredIds) {
  shard::ShardSetConfig config;
  config.index = PipelineConfig(true, true);
  config.num_shards = 2;
  shard::IndexShardSet shards(config);
  const std::vector<TermCount> terms = {{7, 2}};

  ASSERT_TRUE(shards.InsertWindowChecked(1, 1000, terms, true).ok());
  shards.FinishStream(1);
  const Status reuse = shards.InsertWindowChecked(1, 2000, terms, true);
  EXPECT_EQ(reuse.code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(shards.InsertWindowChecked(2, 1000, terms, true).ok());
  shards.DeleteStream(2);
  EXPECT_EQ(shards.InsertWindowChecked(2, 2000, terms, true).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(shards.CheckInsert(2).ok());

  // The void SearchIndex interface drops the window instead of touching
  // the wrong shard epoch: stream 2 stays deleted.
  shards.InsertWindow(2, 3000, terms, true);
  for (const auto& r : shards.Query({7}, 10, 4000)) {
    EXPECT_NE(r.stream, 2u) << "dropped window resurrected a deleted stream";
  }

  // A fresh id is unaffected by the guard.
  EXPECT_TRUE(shards.InsertWindowChecked(3, 3000, terms, true).ok());
}

// A single-shard set keeps the classic single-index semantics:
// re-insertion after FinishStream is the documented "stream resumes"
// path and must stay accepted.
TEST(ShardIdReuseTest, SingleShardStillAcceptsReuse) {
  shard::ShardSetConfig config;
  config.index = PipelineConfig(true, true);
  config.num_shards = 1;
  shard::IndexShardSet shards(config);
  const std::vector<TermCount> terms = {{7, 2}};
  ASSERT_TRUE(shards.InsertWindowChecked(1, 1000, terms, true).ok());
  shards.FinishStream(1);
  EXPECT_TRUE(shards.CheckInsert(1).ok());
  EXPECT_TRUE(shards.InsertWindowChecked(1, 2000, terms, true).ok());
}

// Service level: a sharded service rejects the whole window (both
// modalities untouched, seeded RNG not advanced) while the single-shard
// default keeps accepting resumes.
TEST(ShardIdReuseTest, ShardedServiceRejectsReuseAtomically) {
  service::SearchServiceConfig config;
  config.index.lsm.delta = 500;
  config.ingestion.transcriber.word_error_rate = 0.0;
  config.shards = 2;
  SimulatedClock clock;
  service::SearchService service(config, &clock);

  ASSERT_TRUE(service.IngestWindow(1, {"hello", "world"}).ok());
  service.FinishStream(1);
  const Status reuse = service.IngestWindow(1, {"hello", "again"});
  EXPECT_EQ(reuse.code(), StatusCode::kFailedPrecondition);

  // Batch all-or-nothing: one bad op poisons the batch, nothing lands.
  const auto pinned = service.PinIndices();
  const std::size_t before = pinned->text->shard_index(0).tree().total_postings() +
                             pinned->text->shard_index(1).tree().total_postings();
  std::vector<service::IngestOp> ops(2);
  ops[0].stream = 5;
  ops[0].words = {"fresh", "stream"};
  ops[1].stream = 1;  // Retired.
  ops[1].words = {"poison"};
  EXPECT_EQ(service.IngestBatch(ops).code(),
            StatusCode::kFailedPrecondition);
  const std::size_t after = pinned->text->shard_index(0).tree().total_postings() +
                            pinned->text->shard_index(1).tree().total_postings();
  EXPECT_EQ(after, before);

  // Single-shard service: resumes stay legal.
  service::SearchServiceConfig single = config;
  single.shards = 1;
  service::SearchService classic(single, &clock);
  ASSERT_TRUE(classic.IngestWindow(1, {"hello"}).ok());
  classic.FinishStream(1);
  EXPECT_TRUE(classic.IngestWindow(1, {"resumed"}).ok());
}

}  // namespace
}  // namespace rtsi::core

// Scatter-gather soundness: an IndexShardSet must return BIT-IDENTICAL
// results to a single unsharded index over the same streams — same
// streams, same order, same double scores — because every stream lives in
// exactly one shard, scores are computed from the corpus-global
// SharedScoringState, and the merge applies the same (score desc, stream
// asc) total order as every other query path (DESIGN.md §6i).
//
// The concurrent variant runs ingest, window seals and merge cascades on
// all shards while queries scatter-gather across them, then quiesces and
// checks the final state against a sequentially built single-shard
// oracle. Run under TSan via the sanitizer ctest label.

#include "shard/shard_set.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rtsi_index.h"

namespace rtsi::shard {
namespace {

constexpr TermId kVocab = 10;
constexpr StreamId kNumStreams = 40;
constexpr Timestamp kQueryTime = 1'000'000'000'000LL;

core::RtsiConfig SmallConfig() {
  core::RtsiConfig config;
  config.lsm.delta = 200;  // Frequent seals → multi-component queries.
  return config;
}

struct Op {
  enum class Kind { kInsert, kFinish, kDelete, kPop } kind = Kind::kInsert;
  StreamId stream = 0;
  Timestamp now = 0;
  std::vector<core::TermCount> terms;
  std::uint64_t delta = 0;
  bool live = true;
};

// A deterministic mutation workload: inserts with overlapping vocab,
// popularity updates, finishes and one delete. Stream ids are never
// reused after their finish/delete (the live-streaming model: one id per
// broadcast) — that is the precondition for cross-shard-count
// bit-identity, because the df first-occurrence dedup forgets reclaimed
// streams on a merge-timing-dependent schedule (DESIGN.md §6i).
std::vector<Op> MakeWorkload(int n) {
  std::vector<Op> ops;
  Timestamp now = 0;
  for (int i = 0; i < n; ++i) {
    now += kMicrosPerSecond;
    Op op;
    if (i % 13 == 9) {
      op.kind = Op::Kind::kPop;
      op.stream = static_cast<StreamId>(i % 32);
      op.delta = 5 + i % 17;
    } else if (i == 60 || i == 75 || i == 105) {
      op.kind = Op::Kind::kFinish;
      op.stream = static_cast<StreamId>(32 + (i - 60) / 15);
    } else if (i == 90) {
      op.kind = Op::Kind::kDelete;
      op.stream = 36;
    } else {
      op.kind = Op::Kind::kInsert;
      // Streams 32..36 broadcast only during the first 55 ops, then get
      // finished/deleted above; streams 0..31 broadcast throughout.
      op.stream = (i < 55 && i % 5 == 3)
                      ? static_cast<StreamId>(32 + (i / 5) % 5)
                      : static_cast<StreamId>(i % 32);
      op.now = now;
      op.terms = {{static_cast<TermId>(i % kVocab),
                   static_cast<TermFreq>(1 + i % 4)},
                  {static_cast<TermId>((i + 3) % kVocab), 2},
                  {static_cast<TermId>((i + 7) % kVocab), 1}};
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

void Apply(core::SearchIndex& index, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      index.InsertWindow(op.stream, op.now, op.terms, op.live);
      break;
    case Op::Kind::kFinish:
      index.FinishStream(op.stream);
      break;
    case Op::Kind::kDelete:
      index.DeleteStream(op.stream);
      break;
    case Op::Kind::kPop:
      index.UpdatePopularity(op.stream, op.delta);
      break;
  }
}

/// Bitwise comparison: stream order AND exact double scores must match.
void ExpectIdentical(const std::vector<core::ScoredStream>& got,
                     const std::vector<core::ScoredStream>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream, want[i].stream) << label << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << label << " rank " << i;
  }
}

/// Every single term, plus adjacent pairs and triples, at several k.
void CompareAllProbes(IndexShardSet& sharded, IndexShardSet& oracle) {
  for (TermId t = 0; t < kVocab; ++t) {
    for (const int k : {1, 3, static_cast<int>(kNumStreams) + 5}) {
      ExpectIdentical(
          sharded.Query({t}, k, kQueryTime),
          oracle.Query({t}, k, kQueryTime),
          "term " + std::to_string(t) + " k=" + std::to_string(k));
    }
    ExpectIdentical(
        sharded.Query({t, static_cast<TermId>((t + 1) % kVocab)}, 10,
                      kQueryTime),
        oracle.Query({t, static_cast<TermId>((t + 1) % kVocab)}, 10,
                     kQueryTime),
        "pair " + std::to_string(t));
    core::QueryFilter live_only;
    live_only.live_only = true;
    ExpectIdentical(
        sharded.QueryFiltered({t}, 10, kQueryTime, live_only),
        oracle.QueryFiltered({t}, 10, kQueryTime, live_only),
        "live-only term " + std::to_string(t));
  }
  ExpectIdentical(sharded.Query({0, 3, 6}, 15, kQueryTime),
                  oracle.Query({0, 3, 6}, 15, kQueryTime), "triple 0,3,6");
}

TEST(ShardForStreamTest, SpreadsSequentialIdsAcrossShards) {
  const int kShards = 4;
  std::vector<int> counts(kShards, 0);
  for (StreamId s = 0; s < 10000; ++s) {
    const int shard = ShardForStream(s, kShards);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    ++counts[shard];
  }
  // Sequential ids must not pile onto one shard: each within 2x of fair.
  for (const int count : counts) {
    EXPECT_GT(count, 10000 / kShards / 2);
    EXPECT_LT(count, 10000 / kShards * 2);
  }
  // Stable: the same id always routes to the same shard.
  EXPECT_EQ(ShardForStream(12345, kShards), ShardForStream(12345, kShards));
  // One shard degenerates to the identity routing.
  EXPECT_EQ(ShardForStream(12345, 1), 0);
}

TEST(ShardDeterminismTest, ScatterGatherBitIdenticalToSingleShard) {
  const std::vector<Op> ops = MakeWorkload(240);

  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (const Op& op : ops) Apply(oracle, op);

  for (const int num_shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardSetConfig config;
    config.index = SmallConfig();
    config.num_shards = num_shards;
    IndexShardSet sharded(config);
    for (const Op& op : ops) Apply(sharded, op);
    CompareAllProbes(sharded, oracle);
  }
}

TEST(ShardDeterminismTest, SharedScoringAggregatesMatchOracle) {
  const std::vector<Op> ops = MakeWorkload(180);

  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (const Op& op : ops) Apply(oracle, op);

  ShardSetConfig config;
  config.index = SmallConfig();
  config.num_shards = 3;
  IndexShardSet sharded(config);
  for (const Op& op : ops) Apply(sharded, op);

  const core::SharedScoringState& shared = sharded.shared_scoring();
  const core::RtsiIndex& reference = oracle.shard_index(0);
  EXPECT_EQ(shared.df.num_documents(),
            reference.doc_freq().num_documents());
  for (TermId t = 0; t < kVocab; ++t) {
    EXPECT_EQ(shared.df.Idf(t), reference.doc_freq().Idf(t))
        << "idf diverged for term " << t;
  }
  EXPECT_EQ(shared.max_pop.load(),
            reference.stream_table().max_pop_count());
}

TEST(ShardDeterminismTest, AdoptedShardsRebuildSharedScoring) {
  // The adopt constructor (snapshot-restore path) must rebuild the
  // aggregate from the adopted tables, not start from zero.
  const std::vector<Op> ops = MakeWorkload(120);
  auto index = std::make_unique<core::RtsiIndex>(SmallConfig());
  for (const Op& op : ops) Apply(*index, op);
  const std::uint64_t documents = index->doc_freq().num_documents();
  const std::uint64_t max_pop = index->stream_table().max_pop_count();
  ASSERT_GT(documents, 0u);
  ASSERT_GT(max_pop, 0u);

  ShardSetConfig config;
  config.index = SmallConfig();
  std::vector<std::unique_ptr<core::RtsiIndex>> shards;
  shards.push_back(std::move(index));
  IndexShardSet adopted(config, std::move(shards));
  EXPECT_EQ(adopted.num_shards(), 1);
  EXPECT_EQ(adopted.shared_scoring().df.num_documents(), documents);
  EXPECT_EQ(adopted.shared_scoring().max_pop.load(), max_pop);
}

// The TSan target: concurrent per-thread ingest (disjoint stream sets, so
// cross-thread op interleavings commute), seals and async merge cascades
// on every shard, scatter-gather queries racing all of it. After
// quiescing, the sharded state must be bit-identical to a single-shard
// oracle built sequentially.
TEST(ShardDeterminismTest, ConcurrentIngestSealsCascadesStayIdentical) {
  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 160;

  core::RtsiConfig concurrent_config = SmallConfig();
  concurrent_config.lsm.delta = 120;  // Seal + cascade under the race.
  concurrent_config.async_merge = true;

  // Per-writer deterministic op streams over disjoint stream ids
  // (stream ≡ w mod kWriters, so no two writers ever share a stream and
  // cross-writer interleavings commute). Streams that get finished stop
  // receiving inserts beforehand — see MakeWorkload on why.
  const auto writer_ops = [&](int w) {
    std::vector<Op> ops;
    Timestamp now = 0;
    for (int i = 0; i < kOpsPerWriter; ++i) {
      now += kMicrosPerSecond;
      Op op;
      if (i % 11 == 7) {
        op.kind = Op::Kind::kPop;
        op.stream = static_cast<StreamId>(kWriters * (i % 8) + w);
        op.delta = 2 + i % 9;
      } else if (i == 100 || i == 120 || i == 140) {
        // Retire streams 8..10 of this writer's partition; their inserts
        // all happened before op 90.
        op.kind = Op::Kind::kFinish;
        op.stream =
            static_cast<StreamId>(kWriters * (8 + (i - 100) / 20) + w);
      } else {
        op.kind = Op::Kind::kInsert;
        op.stream = (i < 90 && i % 7 == 3)
                        ? static_cast<StreamId>(kWriters * (8 + i % 3) + w)
                        : static_cast<StreamId>(kWriters * (i % 8) + w);
        op.now = now;
        op.terms = {{static_cast<TermId>((w + i) % kVocab),
                     static_cast<TermFreq>(1 + i % 3)},
                    {static_cast<TermId>((w + i + 5) % kVocab), 1}};
      }
      ops.push_back(std::move(op));
    }
    return ops;
  };

  ShardSetConfig config;
  config.index = concurrent_config;
  config.num_shards = 4;
  IndexShardSet sharded(config);

  std::atomic<bool> stop{false};
  std::thread querier([&] {
    TermId t = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto results =
          sharded.Query({t, static_cast<TermId>((t + 2) % kVocab)}, 8,
                        kQueryTime);
      ASSERT_LE(results.size(), 8u);
      for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_LE(results[i].score, results[i - 1].score);
      }
      t = static_cast<TermId>((t + 1) % kVocab);
    }
  });
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int s = 0; s < sharded.num_shards(); ++s) {
        const auto stats = sharded.GetShardStats(s);
        ASSERT_GE(stats.memory_bytes, 0u);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Op& op : writer_ops(w)) Apply(sharded, op);
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  querier.join();
  observer.join();
  sharded.WaitForMerges();

  // Sequential oracle: same ops, writer-major order. Per-stream op order
  // is preserved (each stream belongs to one writer) and cross-stream
  // operations commute, so any interleaving reaches this exact state.
  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (int w = 0; w < kWriters; ++w) {
    for (const Op& op : writer_ops(w)) Apply(oracle, op);
  }
  CompareAllProbes(sharded, oracle);
}

TEST(ShardDeterminismTest, DurableShardsSurviveCheckpointAndReopen) {
  const char* kDir = "/tmp/rtsi_shard_determinism_test";
  std::remove((std::string(kDir) + "/shard-0/index.snap").c_str());
  std::remove((std::string(kDir) + "/shard-0/index.journal").c_str());
  std::remove((std::string(kDir) + "/shard-1/index.snap").c_str());
  std::remove((std::string(kDir) + "/shard-1/index.journal").c_str());

  const std::vector<Op> ops = MakeWorkload(150);
  ShardSetConfig config;
  config.index = SmallConfig();
  config.num_shards = 2;
  config.durable_dir = kDir;
  {
    auto opened = IndexShardSet::Open(config);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    IndexShardSet& set = *opened.value();
    EXPECT_TRUE(set.durable());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Apply(set, ops[i]);
      if (i == 70) {
        ASSERT_TRUE(set.Checkpoint().ok());
      }
    }
  }

  ShardSetConfig single;
  single.index = SmallConfig();
  single.num_shards = 1;
  IndexShardSet oracle(single);
  for (const Op& op : ops) Apply(oracle, op);

  std::vector<storage::RecoveryStats> recovery;
  auto reopened = IndexShardSet::Open(config, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.size(), 2u);
  CompareAllProbes(*reopened.value(), oracle);
  for (int s = 0; s < 2; ++s) {
    const auto stats = reopened.value()->GetShardStats(s);
    EXPECT_FALSE(stats.degraded);
    EXPECT_GT(stats.streams, 0u);
  }
}

}  // namespace
}  // namespace rtsi::shard

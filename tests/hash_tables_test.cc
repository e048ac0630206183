// StreamInfoTable and LiveTermTable tests (RTSI's two small hash tables).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "common/memory_tracker.h"
#include "index/live_term_table.h"
#include "index/stream_info_table.h"

namespace rtsi::index {
namespace {

TEST(StreamInfoTableTest, OnInsertCreatesOnce) {
  StreamInfoTable table;
  EXPECT_TRUE(table.OnInsert(1, 100, true));
  EXPECT_FALSE(table.OnInsert(1, 200, true));
  StreamInfo info;
  ASSERT_TRUE(table.Get(1, info));
  EXPECT_EQ(info.frsh, 200);
  EXPECT_TRUE(info.live);
}

TEST(StreamInfoTableTest, FreshnessNeverMovesBackwards) {
  StreamInfoTable table;
  table.OnInsert(1, 500, true);
  table.OnInsert(1, 300, true);  // Stale timestamp must not regress.
  StreamInfo info;
  ASSERT_TRUE(table.Get(1, info));
  EXPECT_EQ(info.frsh, 500);
}

TEST(StreamInfoTableTest, PopularityAccumulatesAndTracksMax) {
  StreamInfoTable table;
  table.AddPopularity(1, 10);
  table.AddPopularity(1, 5);
  table.AddPopularity(2, 100);
  StreamInfo info;
  ASSERT_TRUE(table.Get(1, info));
  EXPECT_EQ(info.pop_count, 15u);
  EXPECT_EQ(table.max_pop_count(), 100u);
}

TEST(StreamInfoTableTest, MarkFinishedClearsLive) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  EXPECT_TRUE(table.IsLive(1));
  table.MarkFinished(1);
  EXPECT_FALSE(table.IsLive(1));
  StreamInfo info;
  EXPECT_TRUE(table.Get(1, info));  // Still queryable.
}

TEST(StreamInfoTableTest, DeletedStreamsInvisibleToGet) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  table.MarkDeleted(1);
  StreamInfo info;
  EXPECT_FALSE(table.Get(1, info));
  EXPECT_TRUE(table.IsDeleted(1));
  EXPECT_FALSE(table.IsLive(1));
}

TEST(StreamInfoTableTest, ComponentCountLifecycle) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  table.IncrementComponentCount(1);
  table.IncrementComponentCount(1);
  EXPECT_EQ(table.GetComponentCount(1), 2u);
  // A merge consolidating two residencies (copies=2): registering the
  // unpublished output leaves the count alone; retiring the inputs after
  // the swap decrements it.
  auto cell = std::make_shared<FreshnessCeiling>();
  table.MergeResidency(1, 12, cell);
  EXPECT_EQ(table.GetComponentCount(1), 2u);
  auto [count, live] = table.DropResidency(1, /*copies=*/2, {10, 11});
  EXPECT_EQ(count, 1u);
  EXPECT_TRUE(live);
  table.MarkFinished(1);
  auto [count2, live2] = table.DropResidency(1, /*copies=*/2, {12, 13});
  EXPECT_EQ(count2, 0u);
  EXPECT_FALSE(live2);
}

TEST(StreamInfoTableTest, MergeResidencyOnUnknownStreamIsSafe) {
  StreamInfoTable table;
  auto cell = std::make_shared<FreshnessCeiling>();
  table.MergeResidency(42, 3, cell);
  EXPECT_TRUE(table.GetResidency(42).empty());
  auto [count, live] = table.DropResidency(42, /*copies=*/2, {1, 2});
  EXPECT_EQ(count, 0u);
  EXPECT_FALSE(live);
}

TEST(StreamInfoTableTest, LateWindowCannotResurrectFinishedStream) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  table.MarkFinished(1);
  EXPECT_FALSE(table.IsLive(1));
  // Out-of-order delivery: a window recorded before the finish event
  // arrives after it. Liveness is monotone — the stream must stay
  // finished — while the freshness update still lands.
  table.OnInsert(1, 150, true);
  EXPECT_FALSE(table.IsLive(1));
  StreamInfo info;
  ASSERT_TRUE(table.Get(1, info));
  EXPECT_FALSE(info.live);
  EXPECT_TRUE(info.finished);
  EXPECT_EQ(info.frsh, 150);
}

TEST(StreamInfoTableTest, ResidencyCellTracksLiveFreshness) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  auto cell = std::make_shared<FreshnessCeiling>();
  // Registration folds the stream's current freshness into the cell, so
  // an insert that raced ahead of the registration is already covered.
  table.AddSealedResidency(1, 7, cell);
  EXPECT_EQ(cell->Get(), 100);
  // Every later insert bumps the cell through the residency.
  table.OnInsert(1, 250, true);
  EXPECT_EQ(cell->Get(), 250);
  // Idempotent per (stream, component): re-registering must not create a
  // second entry.
  table.AddSealedResidency(1, 7, cell);
  EXPECT_EQ(table.GetResidency(1), std::vector<ComponentId>{7});
}

TEST(StreamInfoTableTest, MergeKeepsInputCeilingsLiveUntilRetired) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  auto cell_a = std::make_shared<FreshnessCeiling>();
  auto cell_b = std::make_shared<FreshnessCeiling>();
  table.AddSealedResidency(1, 10, cell_a);
  table.AddSealedResidency(1, 11, cell_b);
  table.IncrementComponentCount(1);
  table.IncrementComponentCount(1);

  // Merge window opens: the (unpublished) output is registered, the
  // inputs stay. Registration bumps the output's cell with the live
  // freshness.
  auto cell_merged = std::make_shared<FreshnessCeiling>();
  table.MergeResidency(1, 12, cell_merged);
  EXPECT_EQ(cell_merged->Get(), 100);
  EXPECT_EQ(table.GetResidency(1),
            (std::vector<ComponentId>{10, 11, 12}));

  // An insert inside the merge window (inputs still query-visible!) must
  // raise the inputs' ceilings too, or a query snapshotting them would
  // prune with a bound below the stream's live freshness.
  table.OnInsert(1, 300, true);
  EXPECT_EQ(cell_a->Get(), 300);
  EXPECT_EQ(cell_b->Get(), 300);
  EXPECT_EQ(cell_merged->Get(), 300);

  // Swap published the output: the inputs are retired and later inserts
  // reach only the output's cell.
  table.DropResidency(1, /*copies=*/2, {10, 11});
  EXPECT_EQ(table.GetResidency(1), std::vector<ComponentId>{12});
  table.OnInsert(1, 400, true);
  EXPECT_EQ(cell_merged->Get(), 400);
  EXPECT_EQ(cell_a->Get(), 300);
  EXPECT_EQ(cell_b->Get(), 300);
}

TEST(StreamInfoTableTest, MergeResidencySkipsDeletedStream) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  auto cell = std::make_shared<FreshnessCeiling>();
  table.AddSealedResidency(1, 10, cell);
  table.IncrementComponentCount(1);
  table.IncrementComponentCount(1);
  table.MarkDeleted(1);
  EXPECT_TRUE(table.GetResidency(1).empty());

  // A merge whose deletion verdicts were memoized before the delete still
  // reports the stream; re-registering it would leak an orphan entry
  // (later merges purge its postings without another hook call).
  auto cell_merged = std::make_shared<FreshnessCeiling>();
  table.MergeResidency(1, 12, cell_merged);
  EXPECT_TRUE(table.GetResidency(1).empty());
  auto [count, live] = table.DropResidency(1, /*copies=*/2, {10, 11});
  EXPECT_EQ(count, 1u);  // Count bookkeeping still applies.
  EXPECT_FALSE(live);

  // Same for freeze-time registration of a stream deleted beforehand.
  table.AddSealedResidency(1, 13, cell_merged);
  EXPECT_TRUE(table.GetResidency(1).empty());
}

TEST(StreamInfoTableTest, MarkDeletedDropsResidency) {
  StreamInfoTable table;
  table.OnInsert(1, 100, true);
  auto cell = std::make_shared<FreshnessCeiling>();
  table.AddSealedResidency(1, 7, cell);
  table.MarkDeleted(1);
  EXPECT_TRUE(table.GetResidency(1).empty());
  table.OnInsert(1, 400, true);  // Tombstoned: must not bump the cell.
  EXPECT_EQ(cell->Get(), 100);
}

TEST(StreamInfoTableTest, SizeCountsEntries) {
  StreamInfoTable table;
  for (StreamId s = 0; s < 100; ++s) table.OnInsert(s, 1, true);
  EXPECT_EQ(table.size(), 100u);
  EXPECT_GT(table.MemoryBytes(), 100 * sizeof(StreamInfo));
}

TEST(StreamInfoTableTest, ConcurrentPopularityUpdates) {
  StreamInfoTable table;
  constexpr int kThreads = 8;
  constexpr int kUpdates = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table] {
      for (int i = 0; i < kUpdates; ++i) table.AddPopularity(i % 10, 1);
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t total = 0;
  for (StreamId s = 0; s < 10; ++s) {
    StreamInfo info;
    ASSERT_TRUE(table.Get(s, info));
    total += info.pop_count;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kUpdates);
}

TEST(LiveTermTableTest, AddAccumulatesTotals) {
  LiveTermTable table;
  EXPECT_EQ(table.Add(1, 100, 3), 3u);
  EXPECT_EQ(table.Add(1, 100, 4), 7u);
  EXPECT_EQ(table.GetTotal(1, 100), 7u);
  EXPECT_EQ(table.GetTotal(1, 101), 0u);
  EXPECT_EQ(table.GetTotal(2, 100), 0u);
}

TEST(LiveTermTableTest, MaxTotalIsMonotone) {
  LiveTermTable table;
  table.Add(1, 100, 3);
  table.Add(2, 100, 10);
  table.Add(1, 100, 2);
  EXPECT_EQ(table.GetMaxTotal(100), 10u);
  table.RemoveStream(2);
  // Monotone bound survives removal (it is a bound, not an exact max).
  EXPECT_EQ(table.GetMaxTotal(100), 10u);
}

TEST(LiveTermTableTest, RemoveStreamDropsAllTerms) {
  LiveTermTable table;
  table.Add(1, 100, 1);
  table.Add(1, 101, 2);
  table.Add(2, 100, 3);
  EXPECT_TRUE(table.ContainsStream(1));
  table.RemoveStream(1);
  EXPECT_FALSE(table.ContainsStream(1));
  EXPECT_EQ(table.GetTotal(1, 100), 0u);
  EXPECT_EQ(table.GetTotal(2, 100), 3u);
  EXPECT_EQ(table.num_streams(), 1u);
}

TEST(LiveTermTableTest, CountsStreamsAndEntries) {
  LiveTermTable table;
  table.Add(1, 100, 1);
  table.Add(1, 101, 1);
  table.Add(2, 100, 1);
  EXPECT_EQ(table.num_streams(), 2u);
  EXPECT_EQ(table.num_entries(), 3u);
}

TEST(LiveTermTableTest, ForEachStreamVisitsEverything) {
  LiveTermTable table;
  table.Add(1, 100, 1);
  table.Add(2, 101, 2);
  table.Add(3, 102, 3);
  std::size_t streams = 0;
  TermFreq total = 0;
  table.ForEachStream(
      [&](StreamId, const std::unordered_map<TermId, TermFreq>& terms) {
        ++streams;
        for (const auto& [term, tf] : terms) total += tf;
      });
  EXPECT_EQ(streams, 3u);
  EXPECT_EQ(total, 6u);
}

TEST(LiveTermTableTest, ConcurrentAddsAreConsistent) {
  LiveTermTable table;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table] {
      for (int i = 0; i < 1000; ++i) {
        table.Add(i % 7, i % 13, 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  TermFreq total = 0;
  table.ForEachStream(
      [&](StreamId, const std::unordered_map<TermId, TermFreq>& terms) {
        for (const auto& [term, tf] : terms) total += tf;
      });
  EXPECT_EQ(total, static_cast<TermFreq>(kThreads * 1000));
}

TEST(LiveTermTableTest, AddWindowDuplicateTermsAccumulateWithinWindow) {
  LiveTermTable table;
  const std::vector<TermCount> window{{100, 2}, {100, 3}, {101, 1}};
  const auto totals = table.AddWindow(1, window);
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0], 2u);
  EXPECT_EQ(totals[1], 5u);  // Second occurrence sees the first's mass.
  EXPECT_EQ(totals[2], 1u);
  EXPECT_EQ(table.GetTotal(1, 100), 5u);
  EXPECT_EQ(table.GetMaxTotal(100), 5u);
  // The duplicate must register (term 100 -> stream 1) exactly once, or
  // RemoveStream would visit it twice and num_entries would drift.
  EXPECT_EQ(table.num_entries(), 2u);
  table.RemoveStream(1);
  EXPECT_EQ(table.num_entries(), 0u);
  EXPECT_EQ(table.num_streams(), 0u);
}

TEST(LiveTermTableTest, AddWindowZeroTfInterleavedWithNonzero) {
  LiveTermTable table;
  const std::vector<TermCount> window{{100, 0}, {101, 4}, {102, 0}, {103, 1}};
  const auto totals = table.AddWindow(1, window);
  EXPECT_EQ(totals, (std::vector<TermFreq>{0, 4, 0, 1}));
  // tf == 0 entries create no counters, no registrations, no bounds.
  EXPECT_EQ(table.GetTotal(1, 100), 0u);
  EXPECT_EQ(table.GetMaxTotal(100), 0u);
  EXPECT_EQ(table.num_entries(), 2u);
  // An all-zero window must not even register the stream.
  table.AddWindow(2, {{200, 0}, {201, 0}});
  EXPECT_FALSE(table.ContainsStream(2));
  EXPECT_EQ(table.num_streams(), 1u);
}

TEST(LiveTermTableTest, AddWindowMaxTotalMonotoneAcrossWindowsAndRemoves) {
  LiveTermTable table;
  TermFreq last_max = 0;
  for (int w = 0; w < 10; ++w) {
    table.AddWindow(1, {{100, 3}});
    const TermFreq now = table.GetMaxTotal(100);
    EXPECT_GE(now, last_max);
    last_max = now;
    if (w == 4) {
      table.RemoveStream(1);  // Consolidation resets the totals...
      EXPECT_GE(table.GetMaxTotal(100), last_max);  // ...not the bound.
    }
  }
  EXPECT_EQ(table.GetMaxTotal(100), 15u);  // 5 windows after the removal.
}

TEST(LiveTermTableTest, AddWindowDuringConsolidationNeverLeaksEntries) {
  // A stream's windows keep arriving while a consolidation merge evicts
  // it (the on_purged hook path). Whatever interleaving occurs, the
  // quiesced table must be fully reclaimable by one RemoveStream.
  LiveTermTable table;
  std::atomic<bool> stop{false};
  std::thread consolidator([&table, &stop] {
    while (!stop.load(std::memory_order_relaxed)) table.RemoveStream(1);
  });
  std::vector<TermCount> window;
  for (int i = 0; i < 3000; ++i) {
    window.assign(1, {static_cast<TermId>(i % 17), 1});
    table.AddWindow(1, window);
  }
  stop.store(true, std::memory_order_relaxed);
  consolidator.join();
  table.RemoveStream(1);
  EXPECT_EQ(table.num_entries(), 0u);
  EXPECT_EQ(table.num_streams(), 0u);
  EXPECT_GE(table.GetMaxTotal(0), 1u);  // Bound survived it all.
}

TEST(LiveTermTableTest, MemoryAccountingMatchesArenaGauge) {
  auto tracker = std::make_shared<MemoryTracker>();
  {
    LiveTermTable table(/*use_arena=*/true, tracker);
    for (StreamId s = 0; s < 64; ++s) {
      for (TermId t = 0; t < 32; ++t) table.Add(s, t, 1);
    }
    const WindowArena::Stats stats = table.ArenaStats();
    EXPECT_GT(stats.owned_bytes, 0u);
    EXPECT_GT(stats.allocated_bytes, 0u);
    EXPECT_GE(stats.owned_bytes, stats.allocated_bytes);
    // The tracker's kLiveArena gauge and the arenas' own view must agree
    // exactly — one number, two observers.
    EXPECT_EQ(tracker->bytes(MemCategory::kLiveArena), stats.owned_bytes);
    // MemoryBytes attributes the arenas' in-use bytes to the inner maps;
    // it can only exceed them (outer maps, stream shards, max_total_).
    EXPECT_GT(table.MemoryBytes(), stats.allocated_bytes);
    // Erasing returns every node; the in-use gauge drops to zero while
    // owned slabs are kept for reuse and stay charged.
    for (StreamId s = 0; s < 64; ++s) table.RemoveStream(s);
    EXPECT_EQ(table.ArenaStats().allocated_bytes, 0u);
    EXPECT_EQ(tracker->bytes(MemCategory::kLiveArena), stats.owned_bytes);
  }
  // Table destruction frees the slabs and balances the gauge to zero.
  EXPECT_EQ(tracker->bytes(MemCategory::kLiveArena), 0u);
}

TEST(LiveTermTableTest, HeapModeUsesUniformNodeAccounting) {
  LiveTermTable table(/*use_arena=*/false);
  const std::size_t empty = table.MemoryBytes();
  constexpr std::size_t kEntries = 64;
  for (StreamId s = 0; s < kEntries; ++s) table.Add(s, 5, 1);
  // One formula for every map: each entry pays at least payload plus the
  // node header; the old per-callsite formulas dropped parts of this.
  const std::size_t per_entry =
      sizeof(StreamId) + sizeof(TermFreq) + 2 * sizeof(void*);
  EXPECT_GE(table.MemoryBytes(), empty + kEntries * per_entry);
  EXPECT_EQ(table.ArenaStats().owned_bytes, 0u);  // No arenas in heap mode.
}

}  // namespace
}  // namespace rtsi::index

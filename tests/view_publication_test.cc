// Epoch-published read views under fire (run under TSan/ASan via
// tools/run_sanitizers.sh; ctest labels: concurrency, sanitizer).
//
// Queries pin one immutable IndexView and traverse it lock-free while
// merge cascades, L0 freezes, deletions and whole-index restores publish
// new views underneath. These tests hammer exactly that overlap and
// assert the three properties the refactor owes:
//   (a) no torn view: every pin observes an internally immutable view
//       and epochs are monotone across successive pins;
//   (b) pruning soundness: pruned-walk top-k equals full-walk top-k
//       bit-for-bit on every quiescent snapshot the chaos produced;
//   (c) reclamation: components retired from the published view are
//       actually freed once the last pinning view drops — the refcount
//       replaces the mirror set without inheriting a mirror-style leak.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/rtsi_index.h"
#include "service/search_service.h"

namespace rtsi {
namespace {

using core::RtsiConfig;
using core::RtsiIndex;
using core::ScoredStream;
using core::TermCount;

RtsiConfig ChurnConfig() {
  RtsiConfig config;
  config.lsm.delta = 200;        // Trip cascades constantly.
  config.lsm.rho = 2.0;
  config.lsm.num_l0_shards = 4;
  config.async_merge = true;     // Cascades race queries for real.
  // Streams keep re-inserting after their components seal; the bound's
  // live ceilings keep pruning lossless there (DESIGN.md §6c), which the
  // pruned-vs-full comparison requires.
  return config;
}

std::vector<TermCount> RandomTerms(Rng& rng, TermId vocab) {
  std::vector<TermCount> terms;
  std::set<TermId> used;
  for (int j = 0; j < 4; ++j) {
    const auto term = static_cast<TermId>(rng.NextUint64(vocab));
    if (used.insert(term).second) {
      terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
    }
  }
  return terms;
}

// (a) Torn-view detection: readers repeatedly pin the view while a
// writer drives freezes, cascades, deletions and seals. Each pin must be
// internally frozen (re-reads agree) and epochs never go backwards.
TEST(ViewPublicationTest, EpochsMonotonePerReaderAndViewsImmutable) {
  RtsiIndex index(ChurnConfig());
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> pins_checked{0};

  const auto reader = [&] {
    std::uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const lsm::IndexViewPtr view = index.tree().PinView();
      ASSERT_NE(view, nullptr);
      ASSERT_GE(view->epoch, last_epoch) << "epoch went backwards";
      last_epoch = view->epoch;
      // The pinned view is immutable: its epoch and component list must
      // re-read identically, and every component is sealed and complete
      // (non-null, with a valid id) no matter what publishes meanwhile.
      const std::size_t n = view->components.size();
      std::size_t postings = 0;
      for (const auto& component : view->components) {
        ASSERT_NE(component, nullptr);
        ASSERT_NE(component->component_id(), kInvalidComponentId);
        postings += component->num_postings();
      }
      ASSERT_EQ(view->components.size(), n);
      ASSERT_EQ(view->epoch, last_epoch);
      (void)postings;
      pins_checked.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::thread r1(reader), r2(reader);
  Rng rng(17);
  Timestamp t = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto stream = static_cast<StreamId>(rng.NextUint64(80));
    index.InsertWindow(stream, t += kMicrosPerSecond,
                       RandomTerms(rng, 24), rng.NextBool(0.5));
    if (rng.NextBool(0.05)) index.FinishStream(stream);
    if (rng.NextBool(0.03)) index.DeleteStream(stream);
    if (rng.NextBool(0.2)) {
      index.UpdatePopularity(stream, 1 + rng.NextUint64(50));
    }
  }
  index.WaitForMerges();
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(pins_checked.load(), 0u);
}

// (b) Pruned-walk == full-walk, bit for bit, on every quiescent snapshot
// a merge-heavy, deletion-heavy workload produces. Queries also run
// *during* the chaos to exercise the lock-free path itself.
TEST(ViewPublicationTest, PrunedTopKEqualsFullTopKOnEverySnapshot) {
  auto config = ChurnConfig();
  RtsiIndex index(config);
  Rng rng(23);
  Timestamp t = 0;
  constexpr TermId kVocab = 24;

  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 400; ++i) {
      const auto stream = static_cast<StreamId>(rng.NextUint64(70));
      index.InsertWindow(stream, t += kMicrosPerSecond,
                         RandomTerms(rng, kVocab), rng.NextBool(0.6));
      if (rng.NextBool(0.04)) index.FinishStream(stream);
      if (rng.NextBool(0.02)) index.DeleteStream(stream);
      // Query mid-churn: must be well-formed whatever view it pinned.
      if (i % 37 == 0) {
        const auto results = index.Query(
            {static_cast<TermId>(rng.NextUint64(kVocab)),
             static_cast<TermId>(rng.NextUint64(kVocab))},
            10, t);
        ASSERT_LE(results.size(), 10u);
        for (std::size_t r = 1; r < results.size(); ++r) {
          ASSERT_LE(results[r].score, results[r - 1].score);
        }
        for (const auto& r : results) ASSERT_TRUE(std::isfinite(r.score));
      }
    }
    // Quiesce, then certify the bound on this burst's snapshot.
    index.WaitForMerges();
    for (int qi = 0; qi < 4; ++qi) {
      const std::vector<TermId> q = {
          static_cast<TermId>(rng.NextUint64(kVocab)),
          static_cast<TermId>(rng.NextUint64(kVocab))};
      index.SetUseBound(true);
      const auto pruned = index.Query(q, 10, t);
      index.SetUseBound(false);
      const auto full = index.Query(q, 10, t);
      index.SetUseBound(true);
      ASSERT_EQ(pruned.size(), full.size()) << "burst " << burst;
      for (std::size_t i = 0; i < pruned.size(); ++i) {
        ASSERT_EQ(pruned[i].stream, full[i].stream) << "rank " << i;
        ASSERT_EQ(pruned[i].score, full[i].score) << "rank " << i;
      }
    }
  }
}

// (c) Reclamation: components leaving the view stay alive exactly as
// long as a pin references them, then are freed — no mirror-style leak.
TEST(ViewPublicationTest, RetiredComponentsFreedWhenLastPinDrops) {
  auto config = ChurnConfig();
  config.async_merge = false;  // Deterministic cascade points.
  RtsiIndex index(config);
  Rng rng(41);
  Timestamp t = 0;
  for (int i = 0; i < 600; ++i) {
    index.InsertWindow(static_cast<StreamId>(rng.NextUint64(40)),
                       t += kMicrosPerSecond, RandomTerms(rng, 16), true);
  }
  ASSERT_GT(index.tree().PinView()->components.size(), 0u);

  lsm::IndexViewPtr pinned = index.tree().PinView();
  const std::uint64_t pinned_epoch = pinned->epoch;
  // Drive enough churn that every pinned component is merged away.
  for (int i = 0; i < 3000; ++i) {
    index.InsertWindow(static_cast<StreamId>(rng.NextUint64(40)),
                       t += kMicrosPerSecond, RandomTerms(rng, 16), true);
  }
  ASSERT_GT(index.tree().epoch(), pinned_epoch);
  EXPECT_GT(index.tree().retired_components(), 0u);
  EXPECT_GT(index.tree().RetiredBytes(), 0u);
  EXPECT_GE(index.tree().live_views(), 2);  // Published + our pin.

  pinned.reset();
  EXPECT_EQ(index.tree().retired_components(), 0u);
  EXPECT_EQ(index.tree().RetiredBytes(), 0u);
  EXPECT_EQ(index.tree().live_views(), 1);
}

// Service layer: ReplaceIndices is a swap, not a stall. Queries and
// ingestion run concurrently with repeated whole-index restores; pinned
// pairs stay fully usable after the swap replaces them.
TEST(ViewPublicationTest, ReplaceIndicesSwapsUnderConcurrentQueries) {
  service::SearchServiceConfig config;
  config.index.lsm.delta = 500;
  config.index.async_merge = true;
  SimulatedClock clock;
  clock.Advance(kMicrosPerSecond);
  service::SearchService service(config, &clock);

  const std::vector<std::string> vocab = {"alpha", "bravo", "charlie",
                                          "delta", "echo",  "foxtrot"};
  const auto words_for = [&](Rng& rng) {
    std::vector<std::string> words;
    for (int i = 0; i < 12; ++i) {
      words.push_back(vocab[rng.NextUint64(vocab.size())]);
    }
    return words;
  };

  {
    Rng seed_rng(7);
    for (StreamId s = 0; s < 30; ++s) {
      service.IngestWindow(s, words_for(seed_rng), true);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries_done{0};

  std::thread querier([&] {
    Rng rng(11);
    while (!stop.load(std::memory_order_acquire)) {
      const auto results = service.SearchKeywords("alpha charlie", 5);
      ASSERT_LE(results.size(), 5u);
      for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_LE(results[i].score, results[i - 1].score);
      }
      queries_done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread ingester([&] {
    Rng rng(13);
    StreamId next = 1000;
    while (!stop.load(std::memory_order_acquire)) {
      service.IngestWindow(next++, words_for(rng), true);
    }
  });

  // A pinned pair must outlive any number of restores.
  const auto pinned = service.PinIndices();
  for (int restore = 0; restore < 6; ++restore) {
    auto text = std::make_unique<core::RtsiIndex>(config.index);
    auto sound = std::make_unique<core::RtsiIndex>(config.index);
    service.ReplaceIndices(std::move(text), std::move(sound));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  querier.join();
  ingester.join();

  EXPECT_GT(queries_done.load(), 0u);
  // The pre-restore pair is intact and queryable through its pin.
  const auto held = pinned->text->Query({0, 1}, 5, clock.Now());
  EXPECT_LE(held.size(), 5u);
  pinned->text->WaitForMerges();
  pinned->sound->WaitForMerges();
}

}  // namespace
}  // namespace rtsi

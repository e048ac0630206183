// Ranking invariants that must hold for any workload:
//  - results are sorted descending and duplicate-free;
//  - top-k is a prefix of top-(k+m) (score-wise);
//  - boosting a stream's popularity never lowers its rank;
//  - adding matching content never lowers a stream's score;
//  - scores are insensitive to query-term order.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "common/rng.h"
#include "core/rtsi_index.h"

namespace rtsi::core {
namespace {

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 150;
  config.lsm.num_l0_shards = 4;
  return config;
}

class RankingInvariants : public ::testing::TestWithParam<int> {
 protected:
  void BuildRandomIndex(RtsiIndex& index, Rng& rng, int num_streams) {
    Timestamp t = 0;
    for (StreamId s = 0; s < static_cast<StreamId>(num_streams); ++s) {
      const int windows = 1 + static_cast<int>(rng.NextUint64(3));
      for (int w = 0; w < windows; ++w) {
        std::vector<TermCount> terms;
        std::set<TermId> used;
        for (int i = 0; i < 5; ++i) {
          const auto term = static_cast<TermId>(rng.NextUint64(30));
          if (used.insert(term).second) {
            terms.push_back(
                {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
          }
        }
        index.InsertWindow(s, t += kMicrosPerSecond, terms,
                           w + 1 < windows);
      }
      index.FinishStream(s);
      if (rng.NextBool(0.3)) {
        index.UpdatePopularity(s, rng.NextUint64(200));
      }
    }
    final_time_ = t;
  }

  Timestamp final_time_ = 0;
};

TEST_P(RankingInvariants, SortedAndDuplicateFree) {
  Rng rng(GetParam());
  RtsiIndex index(SmallConfig());
  BuildRandomIndex(index, rng, 150);

  for (TermId q = 0; q < 30; q += 3) {
    const auto results = index.Query({q, (q + 11) % 30}, 20, final_time_);
    std::set<StreamId> seen;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(seen.insert(results[i].stream).second) << q;
      if (i > 0) ASSERT_LE(results[i].score, results[i - 1].score) << q;
    }
  }
}

TEST_P(RankingInvariants, TopKIsPrefixOfTopKPlusM) {
  Rng rng(GetParam() + 100);
  RtsiIndex index(SmallConfig());
  BuildRandomIndex(index, rng, 150);

  for (TermId q = 0; q < 30; q += 5) {
    const auto small = index.Query({q}, 5, final_time_);
    const auto large = index.Query({q}, 15, final_time_);
    ASSERT_LE(small.size(), large.size());
    for (std::size_t i = 0; i < small.size(); ++i) {
      // Scores must coincide rank by rank (streams may swap on ties).
      ASSERT_NEAR(small[i].score, large[i].score, 1e-12) << q << " " << i;
    }
  }
}

TEST_P(RankingInvariants, PopularityBoostNeverLowersRank) {
  Rng rng(GetParam() + 200);
  RtsiIndex index(SmallConfig());
  BuildRandomIndex(index, rng, 100);

  const TermId q = 7;
  const auto before = index.Query({q}, 50, final_time_);
  if (before.size() < 3) return;
  const StreamId target = before[before.size() / 2].stream;
  std::size_t rank_before = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i].stream == target) rank_before = i;
  }

  index.UpdatePopularity(target, 1'000'000);  // Massive boost.
  const auto after = index.Query({q}, 50, final_time_);
  std::size_t rank_after = after.size();
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i].stream == target) rank_after = i;
  }
  ASSERT_LT(rank_after, after.size()) << "boosted stream disappeared";
  EXPECT_LE(rank_after, rank_before);
}

TEST_P(RankingInvariants, AddingMatchingContentNeverLowersScore) {
  Rng rng(GetParam() + 300);
  RtsiIndex index(SmallConfig());
  BuildRandomIndex(index, rng, 80);

  const TermId q = 3;
  const auto before = index.Query({q}, 100, final_time_);
  double score_before = 0.0;
  StreamId target = kInvalidStreamId;
  for (const auto& r : before) {
    target = r.stream;
    score_before = r.score;
    break;
  }
  if (target == kInvalidStreamId) return;

  // More of the query term in a fresh window: tf and frsh both rise.
  index.InsertWindow(target, final_time_ + kMicrosPerMinute, {{q, 5}},
                     true);
  const auto after =
      index.Query({q}, 100, final_time_ + kMicrosPerMinute);
  for (const auto& r : after) {
    if (r.stream == target) {
      EXPECT_GE(r.score, score_before - 1e-9);
      return;
    }
  }
  FAIL() << "stream with added content disappeared from results";
}

TEST_P(RankingInvariants, QueryTermOrderIrrelevant) {
  Rng rng(GetParam() + 400);
  RtsiIndex index(SmallConfig());
  BuildRandomIndex(index, rng, 120);

  const auto ab = index.Query({4, 9}, 10, final_time_);
  const auto ba = index.Query({9, 4}, 10, final_time_);
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t i = 0; i < ab.size(); ++i) {
    ASSERT_NEAR(ab[i].score, ba[i].score, 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingInvariants, ::testing::Range(1, 6));

// Pruned vs full-walk equivalence while merges run underneath: the
// per-component live-freshness ceilings must keep upper-bound pruning
// lossless in exactly the regime that created them — streams re-inserting
// long after their early postings sealed, queries racing async merge
// cascades and served through pinned views. SetUseBound toggles pruning
// on the one index so both walks see identical content; a pair is retried
// when a merge published a new view between its two queries (the
// transient per-component partials of a multi-component stream
// legitimately differ across the swap, so the comparison is only defined
// at a fixed view epoch — equal epochs bracket an identical component
// set).
TEST(PrunedVsFullWalk, CeilingPruningLosslessAcrossMergeInterleavings) {
  for (int seed = 1; seed <= 3; ++seed) {
    auto config = SmallConfig();
    config.async_merge = true;
    RtsiIndex index(config);
    Rng rng(9000 + seed);
    Timestamp t = 0;
    constexpr int kStreams = 90;
    constexpr TermId kVocab = 30;

    const auto compare_pair = [&](const std::vector<TermId>& q, int k,
                                  const std::string& context) {
      std::vector<ScoredStream> pruned, full;
      for (int attempt = 0;; ++attempt) {
        if (attempt >= 20) {
          // Merges outpaced us; compare quiescent instead of spinning.
          index.WaitForMerges();
        }
        const std::uint64_t epoch = index.tree().epoch();
        index.SetUseBound(true);
        pruned = index.Query(q, k, t);
        index.SetUseBound(false);
        full = index.Query(q, k, t);
        if (index.tree().epoch() == epoch) break;
      }
      ASSERT_EQ(pruned.size(), full.size()) << context;
      for (std::size_t i = 0; i < pruned.size(); ++i) {
        ASSERT_EQ(pruned[i].stream, full[i].stream) << context << " rank "
                                                    << i;
        // Bit-identical: pruning may only skip work, never alter a score.
        ASSERT_EQ(pruned[i].score, full[i].score) << context << " rank "
                                                  << i;
      }
    };

    for (int burst = 0; burst < 12; ++burst) {
      // Insert burst, sized to trip merge cascades (delta = 150).
      for (int i = 0; i < 120; ++i) {
        const auto stream = static_cast<StreamId>(rng.NextUint64(kStreams));
        std::vector<TermCount> terms;
        std::set<TermId> used;
        for (int j = 0; j < 4; ++j) {
          const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
          if (used.insert(term).second) {
            terms.push_back(
                {term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
          }
        }
        index.InsertWindow(stream, t += kMicrosPerSecond, terms,
                           rng.NextBool(0.6));
        if (rng.NextBool(0.1)) index.FinishStream(stream);
        if (rng.NextBool(0.2)) {
          index.UpdatePopularity(stream, 1 + rng.NextUint64(100));
        }
      }
      // Query pairs racing whatever cascade the burst scheduled.
      for (int qi = 0; qi < 6; ++qi) {
        const std::vector<TermId> q = {
            static_cast<TermId>(rng.NextUint64(kVocab)),
            static_cast<TermId>(rng.NextUint64(kVocab))};
        // Large k keeps the k-th score low, where a too-low ceiling
        // actually decides membership.
        const int k = 10 + static_cast<int>(rng.NextUint64(30));
        compare_pair(q, k, "seed " + std::to_string(seed) + " burst " +
                               std::to_string(burst) + " query " +
                               std::to_string(qi));
        if (HasFatalFailure()) return;
      }
    }

    // Quiescent sweep: every term, after all cascades settled.
    index.WaitForMerges();
    for (TermId term = 0; term < kVocab; ++term) {
      compare_pair({term, (term + 7) % kVocab}, 25,
                   "seed " + std::to_string(seed) + " quiescent term " +
                       std::to_string(term));
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rtsi::core

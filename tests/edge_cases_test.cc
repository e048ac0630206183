// Edge-case and failure-injection tests across the index facades:
// operations on unknown streams, degenerate windows, duplicate terms
// inside one window, deletion before insertion, and bound-safety
// properties under randomized component contents.

#include <gtest/gtest.h>

#include <set>

#include "baseline/lsii_index.h"
#include "common/rng.h"
#include "exec/traversal.h"
#include "core/rtsi_index.h"

namespace rtsi {
namespace {

using core::RtsiConfig;
using core::RtsiIndex;
using core::TermCount;

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 100;
  config.lsm.num_l0_shards = 4;
  return config;
}

TEST(EdgeCaseTest, OperationsOnUnknownStreamsAreSafe) {
  RtsiIndex index(SmallConfig());
  index.FinishStream(42);
  index.DeleteStream(43);
  index.UpdatePopularity(44, 10);
  EXPECT_TRUE(index.Query({1}, 5, 100).empty());
}

TEST(EdgeCaseTest, EmptyWindowInsertIsSafe) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 100, {}, true);
  // The stream exists (metadata) but matches nothing.
  EXPECT_TRUE(index.Query({1}, 5, 200).empty());
  index::StreamInfo info;
  EXPECT_TRUE(index.stream_table().Get(1, info));
}

TEST(EdgeCaseTest, ZeroTfTermsAreIgnored) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 100, {{10, 0}, {11, 2}}, true);
  EXPECT_TRUE(index.Query({10}, 5, 200).empty());
  EXPECT_EQ(index.Query({11}, 5, 200).size(), 1u);
}

TEST(EdgeCaseTest, DuplicateTermInOneWindowAccumulates) {
  RtsiIndex a(SmallConfig());
  RtsiIndex b(SmallConfig());
  // Window with term 10 split into two entries vs one combined entry.
  a.InsertWindow(1, 100, {{10, 2}, {10, 3}}, false);
  b.InsertWindow(1, 100, {{10, 5}}, false);
  const auto ra = a.Query({10}, 1, 200);
  const auto rb = b.Query({10}, 1, 200);
  ASSERT_EQ(ra.size(), 1u);
  ASSERT_EQ(rb.size(), 1u);
  EXPECT_NEAR(ra[0].score, rb[0].score, 1e-9);
}

TEST(EdgeCaseTest, UpdateBeforeFirstInsertIsVisible) {
  RtsiIndex index(SmallConfig());
  index.UpdatePopularity(1, 500);  // Play counter before content exists.
  index.InsertWindow(1, 100, {{10, 1}}, true);
  index.InsertWindow(2, 100, {{10, 1}}, true);
  const auto results = index.Query({10}, 2, 200);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 1u);  // Pre-seeded popularity wins.
}

TEST(EdgeCaseTest, DeleteThenReinsertStaysDeleted) {
  // Lazy deletion marks the stream forever (ids are never recycled on the
  // platform); inserting after deletion does not resurrect it.
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 100, {{10, 1}}, true);
  index.DeleteStream(1);
  index.InsertWindow(1, 200, {{10, 1}}, true);
  EXPECT_TRUE(index.Query({10}, 5, 300).empty());
}

TEST(EdgeCaseTest, DeleteEverythingThenQuery) {
  auto config = SmallConfig();
  config.lsm.delta = 30;
  RtsiIndex index(config);
  Timestamp t = 0;
  for (StreamId s = 0; s < 50; ++s) {
    index.InsertWindow(s, t += 1000, {{10, 1}}, false);
  }
  for (StreamId s = 0; s < 50; ++s) index.DeleteStream(s);
  EXPECT_TRUE(index.Query({10}, 10, t).empty());
  // Keep inserting to cycle merges over tombstones.
  for (StreamId s = 100; s < 160; ++s) {
    index.InsertWindow(s, t += 1000, {{11, 1}}, false);
  }
  EXPECT_TRUE(index.Query({10}, 10, t).empty());
  EXPECT_EQ(index.Query({11}, 100, t).size(), 60u);
}

TEST(EdgeCaseTest, KLargerThanCandidateSet) {
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, 100, {{10, 1}}, true);
  index.InsertWindow(2, 100, {{10, 1}}, true);
  const auto results = index.Query({10}, 100, 200);
  EXPECT_EQ(results.size(), 2u);
}

TEST(EdgeCaseTest, ManyTermQueryWorks) {
  RtsiIndex index(SmallConfig());
  std::vector<TermCount> terms;
  for (TermId t = 0; t < 20; ++t) terms.push_back({t, 1});
  index.InsertWindow(1, 100, terms, false);
  std::vector<TermId> q;
  for (TermId t = 0; t < 20; ++t) q.push_back(t);
  const auto results = index.Query(q, 5, 200);
  ASSERT_EQ(results.size(), 1u);
}

TEST(EdgeCaseTest, LsiiMirrorsRtsiEdgeBehaviour) {
  baseline::LsiiIndex index(SmallConfig());
  index.FinishStream(42);
  index.UpdatePopularity(44, 10);
  index.InsertWindow(1, 100, {{10, 0}, {11, 2}}, true);
  EXPECT_TRUE(index.Query({10}, 5, 200).empty());
  EXPECT_EQ(index.Query({11}, 5, 200).size(), 1u);
  index.DeleteStream(1);
  EXPECT_TRUE(index.Query({11}, 5, 200).empty());
}

TEST(EdgeCaseTest, VeryLongStreamManyWindows) {
  auto config = SmallConfig();
  config.lsm.delta = 60;
  RtsiIndex index(config);
  Timestamp t = 0;
  // A two-hour stream: 120 windows, same dominant term; postings scatter
  // across many components, yet the total tf must stay exact thanks to
  // the live-term table.
  for (int w = 0; w < 120; ++w) {
    index.InsertWindow(7, t += 60 * kMicrosPerSecond, {{10, 2}, {11, 1}},
                       true);
  }
  index.InsertWindow(8, t, {{10, 5}}, true);  // tf 5 << 240.
  const auto results = index.Query({10}, 2, t);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].stream, 7u);
  EXPECT_EQ(index.live_table().GetTotal(7, 10), 240u);
}

class BoundSafetyProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoundSafetyProperty, ComponentBoundDominatesRandomContents) {
  Rng rng(GetParam() * 97);
  const core::Scorer scorer(core::ScoreWeights{}, 3600.0);
  index::InvertedIndex component(1);

  const int num_terms = 1 + static_cast<int>(rng.NextUint64(3));
  std::vector<TermId> terms;
  for (int i = 0; i < num_terms; ++i) terms.push_back(i);
  const std::uint64_t max_pop = 1000;

  // Sealed merge outputs are consolidated: at most one posting per
  // (term, stream) pair, which is what the per-term maxima bound assumes.
  std::set<std::pair<TermId, StreamId>> used;
  for (int i = 0; i < 200; ++i) {
    const auto term = static_cast<TermId>(rng.NextUint64(num_terms));
    const StreamId stream = rng.NextUint64(50);
    if (!used.insert({term, stream}).second) continue;
    component.Add(term,
                  index::Posting{stream,
                                 static_cast<float>(rng.NextUint64(max_pop)),
                                 static_cast<Timestamp>(rng.NextUint64(1000)),
                                 1 + static_cast<TermFreq>(rng.NextUint64(9))});
  }
  component.SealAll();

  std::vector<exec::PerTermBound> per_term(terms.size());
  std::vector<double> idfs(terms.size());
  for (std::size_t i = 0; i < terms.size(); ++i) {
    per_term[i].bounds = component.Bounds(terms[i]);
    per_term[i].idf = idfs[i] = 0.5 + rng.NextDouble() * 3.0;
  }
  const Timestamp now = 1000;
  const double bound = exec::ComponentBound(
      scorer, per_term, scorer.PopScore(max_pop, max_pop),
      scorer.FrshScore(component.LiveFrshCeiling(), now));

  // Any stream scored purely from this component's postings must fall
  // under the bound.
  std::set<StreamId> streams;
  for (const TermId term : terms) {
    const auto* postings = component.GetPlain(term);
    if (postings == nullptr) continue;
    for (const auto& p : postings->entries()) streams.insert(p.stream);
  }
  for (const StreamId stream : streams) {
    double tfidf = 0.0;
    float best_pop = 0.0f;
    Timestamp best_frsh = 0;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const auto* postings = component.GetPlain(terms[i]);
      if (postings == nullptr) continue;
      index::Posting agg;
      if (postings->AggregateForStream(stream, agg)) {
        tfidf += scorer.TermTfIdf(agg.tf, idfs[i]);
        best_pop = std::max(best_pop, agg.pop);
        best_frsh = std::max(best_frsh, agg.frsh);
      }
    }
    const double score = scorer.Combine(
        scorer.PopScore(static_cast<std::uint64_t>(best_pop), max_pop),
        scorer.RelScore(tfidf, static_cast<int>(terms.size())),
        scorer.FrshScore(best_frsh, now));
    ASSERT_LE(score, bound + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundSafetyProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace rtsi

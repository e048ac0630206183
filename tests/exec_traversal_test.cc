#include "exec/traversal.h"

#include <gtest/gtest.h>

#include <set>

namespace rtsi::exec {

using core::Scorer;
using core::ScoreWeights;
namespace {

using index::InvertedIndex;
using index::Posting;

Posting P(StreamId s, float pop, Timestamp frsh, TermFreq tf) {
  return Posting{s, pop, frsh, tf};
}

Scorer DefaultScorer() { return Scorer(ScoreWeights{}, 3600.0); }

// The selector's constant parts of every bound over `idx`: the global
// popularity maximum and the component's live-freshness ceiling.
double PopCeiling(const Scorer& scorer, std::uint64_t max_pop) {
  return scorer.PopScore(max_pop, max_pop);
}
double FrshCeiling(const Scorer& scorer, const InvertedIndex& idx,
                   Timestamp now) {
  return scorer.FrshScore(idx.LiveFrshCeiling(), now);
}

TEST(ComponentBoundTest, ZeroWhenNoTermPresent) {
  const Scorer scorer = DefaultScorer();
  std::vector<PerTermBound> terms(2);  // present = false.
  EXPECT_DOUBLE_EQ(ComponentBound(scorer, terms, 1.0, 1.0), 0.0);
}

TEST(ComponentBoundTest, DominatesAnyContainedPosting) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  idx.Add(1, P(10, 50.0f, 500, 3));
  idx.Add(1, P(11, 80.0f, 900, 7));
  idx.SealAll();

  std::vector<PerTermBound> terms(1);
  terms[0].bounds = idx.Bounds(1);
  terms[0].idf = 2.0;
  const Timestamp now = 1000;
  const std::uint64_t max_pop = 100;
  const double bound = ComponentBound(scorer, terms,
                                      PopCeiling(scorer, max_pop),
                                      FrshCeiling(scorer, idx, now));

  // Score each posting as if its snapshot were its true info.
  for (const Posting& p : idx.GetPlain(1)->entries()) {
    const double score = scorer.Combine(
        scorer.PopScore(static_cast<std::uint64_t>(p.pop), max_pop),
        scorer.RelScore(scorer.TermTfIdf(p.tf, 2.0), 1),
        scorer.FrshScore(p.frsh, now));
    EXPECT_LE(score, bound + 1e-12);
  }
}

TEST(ComponentBoundTest, CeilingsDominateLiveValues) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  idx.Add(1, P(10, 10.0f, 500, 3));  // Sealed with pop 10, frsh 500.
  idx.SealAll();
  std::vector<PerTermBound> terms(1);
  terms[0].bounds = idx.Bounds(1);
  terms[0].idf = 1.0;
  const Timestamp now = 10000;
  const std::uint64_t max_pop = 1000;
  // After sealing, the stream was played (live pop = the global maximum)
  // and posted again (live frsh = now, which bumped the component's
  // ceiling cell): both far above the stored snapshot. The bound must
  // still dominate the live score.
  idx.AdoptCeiling(1, std::make_shared<index::FreshnessCeiling>());
  idx.BumpCeiling(now);
  const double live_score = scorer.Combine(
      scorer.PopScore(max_pop, max_pop),
      scorer.RelScore(scorer.TermTfIdf(3, 1.0), 1),
      scorer.FrshScore(now, now));
  const double bound = ComponentBound(scorer, terms,
                                      PopCeiling(scorer, max_pop),
                                      FrshCeiling(scorer, idx, now));
  EXPECT_GE(bound, live_score);
}

TEST(ComponentBoundTest, TfCorrectionRaisesBound) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  idx.Add(1, P(10, 10.0f, 500, 3));
  idx.SealAll();
  std::vector<PerTermBound> terms(1);
  terms[0].bounds = idx.Bounds(1);
  terms[0].idf = 1.0;
  const double pop = PopCeiling(scorer, 100);
  const double frsh = FrshCeiling(scorer, idx, 1000);
  const double base = ComponentBound(scorer, terms, pop, frsh);
  terms[0].tf_correction = 50;
  const double corrected = ComponentBound(scorer, terms, pop, frsh);
  EXPECT_GT(corrected, base);
}

TEST(TraversalTest, YieldsEveryStreamAtLeastOnce) {
  InvertedIndex idx(1);
  for (int i = 0; i < 20; ++i) {
    idx.Add(1, P(i, static_cast<float>(i * 7 % 20), 100 + i, 1 + i % 5));
  }
  idx.SealAll();

  Traversal traversal(idx, {1});
  std::set<StreamId> seen;
  std::vector<Posting> round;
  while (traversal.NextRound(round)) {
    for (const Posting& p : round) seen.insert(p.stream);
    round.clear();
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(TraversalTest, AbsentTermYieldsNothing) {
  InvertedIndex idx(1);
  idx.Add(1, P(1, 1.0f, 1, 1));
  idx.SealAll();
  Traversal traversal(idx, {99});
  std::vector<Posting> round;
  EXPECT_FALSE(traversal.NextRound(round));
  EXPECT_TRUE(round.empty());
}

TEST(TraversalTest, ThresholdDecreasesMonotonically) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  for (int i = 0; i < 30; ++i) {
    idx.Add(1, P(i, static_cast<float>(i), 100 + i,
                 1 + static_cast<TermFreq>(i)));
  }
  idx.SealAll();

  Traversal traversal(idx, {1});
  const std::vector<double> idfs = {1.0};
  std::vector<Posting> round;
  double prev = 1e300;
  while (traversal.NextRound(round)) {
    round.clear();
    const double tau =
        traversal.Threshold(scorer, idfs, PopCeiling(scorer, 100),
                            FrshCeiling(scorer, idx, 200));
    EXPECT_LE(tau, prev + 1e-12);
    prev = tau;
  }
}

TEST(TraversalTest, ThresholdBoundsUnseenPostings) {
  const Scorer scorer = DefaultScorer();
  InvertedIndex idx(1);
  for (int i = 0; i < 40; ++i) {
    idx.Add(1, P(i, static_cast<float>((i * 13) % 37), 100 + i,
                 1 + static_cast<TermFreq>((i * 7) % 11)));
  }
  idx.SealAll();

  const Timestamp now = 200;
  const std::uint64_t max_pop = 40;
  const std::vector<double> idfs = {1.5};

  Traversal traversal(idx, {1});
  std::set<StreamId> seen;
  std::vector<Posting> round;
  while (traversal.NextRound(round)) {
    for (const Posting& p : round) seen.insert(p.stream);
    round.clear();
    const double tau =
        traversal.Threshold(scorer, idfs, PopCeiling(scorer, max_pop),
                            FrshCeiling(scorer, idx, now));
    // Every unseen posting's (snapshot) score must be below tau.
    for (const Posting& p : idx.GetPlain(1)->entries()) {
      if (seen.count(p.stream) > 0) continue;
      const double score = scorer.Combine(
          scorer.PopScore(static_cast<std::uint64_t>(p.pop), max_pop),
          scorer.RelScore(scorer.TermTfIdf(p.tf, idfs[0]), 1),
          scorer.FrshScore(p.frsh, now));
      ASSERT_LE(score, tau + 1e-12);
    }
  }
}

TEST(TraversalTest, FindAggregates) {
  InvertedIndex idx(1);
  idx.Add(1, P(5, 1.0f, 10, 2));
  idx.Add(2, P(5, 1.0f, 10, 9));
  idx.SealAll();
  Traversal traversal(idx, {1, 2});
  Posting out;
  ASSERT_TRUE(traversal.Find(0, 5, out));
  EXPECT_EQ(out.tf, 2u);
  ASSERT_TRUE(traversal.Find(1, 5, out));
  EXPECT_EQ(out.tf, 9u);
  EXPECT_FALSE(traversal.Find(0, 6, out));
}

TEST(TraversalTest, CountsPostingsYielded) {
  InvertedIndex idx(1);
  for (int i = 0; i < 4; ++i) idx.Add(1, P(i, 0, 10 + i, 1));
  idx.SealAll();
  Traversal traversal(idx, {1});
  std::vector<Posting> round;
  while (traversal.NextRound(round)) round.clear();
  // Round-based sorted access yields 3 postings per round until a list is
  // drained; with 4 postings that is at least 4 and at most 12.
  EXPECT_GE(traversal.postings_yielded(), 4u);
  EXPECT_LE(traversal.postings_yielded(), 12u);
}

}  // namespace
}  // namespace rtsi::exec

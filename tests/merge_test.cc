#include "lsm/merge.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "index/stream_info_table.h"

namespace rtsi::lsm {
namespace {

using index::InvertedIndex;
using index::Posting;

Posting P(StreamId s, float pop, Timestamp frsh, TermFreq tf) {
  return Posting{s, pop, frsh, tf};
}

TEST(MergeTest, CombineWithNullConsolidatesDuplicates) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.Add(1, P(10, 2.0f, 200, 3));  // Same stream, later window.
  a.Add(1, P(11, 5.0f, 150, 1));
  a.SealAll();

  MergeStats stats;
  const auto merged =
      CombineComponents(a, nullptr, 1, false, MergeHooks{}, &stats);
  ASSERT_NE(merged->GetPlain(1), nullptr);
  EXPECT_EQ(merged->GetPlain(1)->size(), 2u);

  Posting out;
  ASSERT_TRUE(merged->GetPlain(1)->AggregateForStream(10, out));
  EXPECT_EQ(out.tf, 5u);
  EXPECT_EQ(out.frsh, 200);
  EXPECT_FLOAT_EQ(out.pop, 2.0f);
  EXPECT_EQ(stats.consolidated_postings, 1u);
}

TEST(MergeTest, CombineMergesTermsFromBothInputs) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.Add(2, P(10, 1.0f, 100, 1));
  a.SealAll();
  InvertedIndex b(1);
  b.Add(1, P(20, 3.0f, 50, 4));
  b.Add(3, P(30, 2.0f, 60, 5));
  b.SealAll();

  MergeStats stats;
  const auto merged =
      CombineComponents(a, &b, 2, false, MergeHooks{}, &stats);
  EXPECT_EQ(merged->num_terms(), 3u);
  EXPECT_EQ(merged->num_postings(), 4u);
  EXPECT_EQ(merged->GetPlain(1)->size(), 2u);
  EXPECT_EQ(stats.postings_in, 4u);
  EXPECT_EQ(stats.postings_out, 4u);
}

TEST(MergeTest, CrossComponentDuplicatesAreConsolidated) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 300, 2));
  a.SealAll();
  InvertedIndex b(1);
  b.Add(1, P(10, 4.0f, 100, 6));
  b.SealAll();

  const auto merged =
      CombineComponents(a, &b, 2, false, MergeHooks{}, nullptr);
  ASSERT_EQ(merged->GetPlain(1)->size(), 1u);
  const Posting& p = merged->GetPlain(1)->entries()[0];
  EXPECT_EQ(p.tf, 8u);
  EXPECT_EQ(p.frsh, 300);
  EXPECT_FLOAT_EQ(p.pop, 4.0f);
}

TEST(MergeTest, LazyDeletionPurgesPostings) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.Add(1, P(11, 1.0f, 110, 3));
  a.SealAll();

  MergeHooks hooks;
  hooks.is_deleted = [](StreamId s) { return s == 10; };
  MergeStats stats;
  const auto merged = CombineComponents(a, nullptr, 1, false, hooks, &stats);
  EXPECT_EQ(merged->num_postings(), 1u);
  EXPECT_EQ(stats.purged_postings, 1u);
  Posting out;
  EXPECT_FALSE(merged->GetPlain(1)->AggregateForStream(10, out));
}

TEST(MergeTest, TermFullyPurgedDisappears) {
  InvertedIndex a(0);
  a.Add(7, P(10, 1.0f, 100, 2));
  a.SealAll();
  MergeHooks hooks;
  hooks.is_deleted = [](StreamId) { return true; };
  const auto merged = CombineComponents(a, nullptr, 1, false, hooks, nullptr);
  EXPECT_EQ(merged->num_terms(), 0u);
  EXPECT_EQ(merged->num_postings(), 0u);
}

TEST(MergeTest, OnStreamHookSeesMembership) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.Add(1, P(11, 1.0f, 110, 3));
  a.SealAll();
  InvertedIndex b(1);
  b.Add(2, P(11, 1.0f, 50, 1));
  b.Add(2, P(12, 1.0f, 60, 1));
  b.SealAll();

  std::set<StreamId> only_a, both, only_b;
  MergeHooks hooks;
  hooks.on_stream = [&](StreamId s, std::uint32_t copies,
                        const InvertedIndex&) {
    if (copies == 2) {
      both.insert(s);
    } else if (s == 12) {
      only_b.insert(s);
    } else {
      only_a.insert(s);
    }
  };
  CombineComponents(a, &b, 2, false, hooks, nullptr);
  EXPECT_EQ(both, std::set<StreamId>{11});
  EXPECT_EQ(only_a, std::set<StreamId>{10});
  EXPECT_EQ(only_b, std::set<StreamId>{12});
}

TEST(MergeTest, OnStreamHookSeesCopyCountAndOutput) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.SealAll();
  a.AdoptCeiling(7, std::make_shared<index::FreshnessCeiling>());
  InvertedIndex b(1);
  b.Add(1, P(10, 1.0f, 50, 1));
  b.SealAll();
  b.AdoptCeiling(8, std::make_shared<index::FreshnessCeiling>());

  int calls = 0;
  MergeHooks hooks;
  hooks.on_stream = [&](StreamId s, std::uint32_t copies,
                        const InvertedIndex& merged) {
    ++calls;
    EXPECT_EQ(s, 10u);
    EXPECT_EQ(copies, 2u);  // Present in both inputs.
    EXPECT_EQ(merged.component_id(), 9u);
  };
  const auto merged = CombineComponents(
      a, &b, 2, false, hooks, nullptr, 9,
      std::make_shared<index::FreshnessCeiling>());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(merged->component_id(), 9u);
}

TEST(MergeTest, MergedCeilingInheritsBothInputs) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.SealAll();
  a.AdoptCeiling(1, std::make_shared<index::FreshnessCeiling>());
  a.BumpCeiling(500);  // A resident stream stayed active after sealing.
  InvertedIndex b(1);
  b.Add(1, P(20, 2.0f, 250, 3));
  b.SealAll();
  b.AdoptCeiling(2, std::make_shared<index::FreshnessCeiling>());

  const auto merged = CombineComponents(
      a, &b, 2, false, MergeHooks{}, nullptr, 3,
      std::make_shared<index::FreshnessCeiling>());
  EXPECT_EQ(merged->component_id(), 3u);
  ASSERT_TRUE(merged->has_ceiling());
  // Dominates a's bumped ceiling (500) and b's stored maximum (250).
  EXPECT_EQ(merged->LiveFrshCeiling(), 500);
}

TEST(MergeTest, NoCeilingCellFallsBackToStoredMax) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.Add(1, P(11, 1.0f, 140, 1));
  a.SealAll();

  // Tests that call CombineComponents without an id/cell still get a
  // sound component: LiveFrshCeiling() floors at the stored maximum and
  // queries fall back to the table-global max_frsh().
  const auto merged =
      CombineComponents(a, nullptr, 1, false, MergeHooks{}, nullptr);
  EXPECT_EQ(merged->component_id(), kInvalidComponentId);
  EXPECT_FALSE(merged->has_ceiling());
  EXPECT_EQ(merged->LiveFrshCeiling(), 140);
}

TEST(MergeTest, OutputIsSealedAndSorted) {
  InvertedIndex a(0);
  a.Add(1, P(10, 3.0f, 100, 2));
  a.Add(1, P(11, 1.0f, 110, 9));
  a.Add(1, P(12, 7.0f, 120, 4));
  a.SealAll();
  const auto merged =
      CombineComponents(a, nullptr, 1, false, MergeHooks{}, nullptr);
  const auto* postings = merged->GetPlain(1);
  ASSERT_NE(postings, nullptr);
  EXPECT_TRUE(postings->sealed());
  EXPECT_TRUE(postings->IsSorted(index::SortKey::kPopularity));
  EXPECT_TRUE(postings->IsSorted(index::SortKey::kFreshness));
  EXPECT_TRUE(postings->IsSorted(index::SortKey::kTermFrequency));
}

TEST(MergeTest, CompressedOutputWhenRequested) {
  InvertedIndex a(0);
  for (int i = 0; i < 50; ++i) {
    a.Add(1, P(i, static_cast<float>(i), 100 + i, 1));
  }
  a.SealAll();
  const auto merged =
      CombineComponents(a, nullptr, 1, true, MergeHooks{}, nullptr);
  EXPECT_TRUE(merged->compressed());
  EXPECT_EQ(merged->num_postings(), 50u);
  const auto view = merged->View(1);
  ASSERT_TRUE(static_cast<bool>(view));
  EXPECT_EQ(view->size(), 50u);
}

TEST(MergeTest, SurvivingStreamsReportedForRetirePass) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.Add(1, P(11, 1.0f, 110, 3));
  a.SealAll();
  InvertedIndex b(1);
  b.Add(2, P(11, 1.0f, 50, 1));
  b.Add(2, P(12, 1.0f, 60, 1));
  b.SealAll();

  MergeHooks hooks;
  hooks.is_deleted = [](StreamId s) { return s == 12; };
  hooks.on_stream = [](StreamId, std::uint32_t, const InvertedIndex&) {};
  std::vector<MergedStream> surviving;
  CombineComponents(a, &b, 2, false, hooks, nullptr, 3,
                    std::make_shared<index::FreshnessCeiling>(), &surviving);
  // Purged streams are not reported: there is nothing to retire for them.
  // Each survivor carries its copy count for the post-swap debit.
  std::map<StreamId, std::uint32_t> copies;
  for (const MergedStream& m : surviving) copies[m.stream] = m.copies;
  EXPECT_EQ(copies, (std::map<StreamId, std::uint32_t>{{10, 1}, {11, 2}}));
}

// The review-critical window: an insert that lands after the merge
// registered the output residency but before the output replaces its
// inputs must still raise the *inputs'* ceilings — they are what a
// concurrent query snapshots. Drives a real StreamInfoTable through the
// same hook wiring RtsiIndex uses.
TEST(MergeTest, InsertDuringMergeWindowKeepsInputCeilingsSound) {
  index::StreamInfoTable table;
  table.OnInsert(10, 100, true);

  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.SealAll();
  a.AdoptCeiling(1, std::make_shared<index::FreshnessCeiling>());
  table.AddSealedResidency(10, 1, a.ceiling_cell());
  InvertedIndex b(1);
  b.Add(1, P(10, 1.0f, 50, 1));
  b.SealAll();
  b.AdoptCeiling(2, std::make_shared<index::FreshnessCeiling>());
  table.AddSealedResidency(10, 2, b.ceiling_cell());

  MergeHooks hooks;
  hooks.is_deleted = [&](StreamId s) { return table.IsDeleted(s); };
  hooks.on_stream = [&](StreamId s, std::uint32_t,
                        const InvertedIndex& merged) {
    table.MergeResidency(s, merged.component_id(), merged.ceiling_cell());
    // Simulate the racing insert inside the merge window, while the
    // inputs are still query-visible.
    table.OnInsert(s, 900, true);
  };
  std::vector<MergedStream> surviving;
  const auto merged = CombineComponents(
      a, &b, 2, false, hooks, nullptr, 3,
      std::make_shared<index::FreshnessCeiling>(), &surviving);

  // Both inputs and the (unpublished) output cover the in-window insert.
  EXPECT_EQ(a.LiveFrshCeiling(), 900);
  EXPECT_EQ(b.LiveFrshCeiling(), 900);
  EXPECT_EQ(merged->LiveFrshCeiling(), 900);

  // Post-swap retire pass, as LsmTree runs it.
  for (const MergedStream& m : surviving) {
    table.DropResidency(m.stream, m.copies,
                        {a.component_id(), b.component_id()});
  }
  EXPECT_EQ(table.GetResidency(10), std::vector<ComponentId>{3});
}

TEST(MergeTest, CompressedInputCanBeMerged) {
  InvertedIndex a(0);
  a.Add(1, P(10, 1.0f, 100, 2));
  a.SealAll();
  InvertedIndex b(1);
  b.Add(1, P(20, 2.0f, 50, 3));
  b.SealAll();
  b.CompressAll();

  const auto merged =
      CombineComponents(a, &b, 2, false, MergeHooks{}, nullptr);
  EXPECT_EQ(merged->num_postings(), 2u);
}

}  // namespace
}  // namespace rtsi::lsm

#include "index/inverted_index.h"

#include <gtest/gtest.h>

namespace rtsi::index {
namespace {

Posting P(StreamId s, float pop, Timestamp frsh, TermFreq tf) {
  return Posting{s, pop, frsh, tf};
}

TEST(InvertedIndexTest, AddAndGet) {
  InvertedIndex idx(0);
  idx.Add(1, P(10, 1.0f, 100, 2));
  idx.Add(1, P(11, 2.0f, 200, 3));
  idx.Add(2, P(10, 1.0f, 100, 1));
  EXPECT_EQ(idx.num_terms(), 2u);
  EXPECT_EQ(idx.num_postings(), 3u);
  ASSERT_NE(idx.GetPlain(1), nullptr);
  EXPECT_EQ(idx.GetPlain(1)->size(), 2u);
  EXPECT_EQ(idx.GetPlain(3), nullptr);
}

TEST(InvertedIndexTest, ViewOnPlainBorrows) {
  InvertedIndex idx(0);
  idx.Add(7, P(1, 1.0f, 1, 1));
  const TermPostingsView view = idx.View(7);
  ASSERT_TRUE(static_cast<bool>(view));
  EXPECT_EQ(view->size(), 1u);
  EXPECT_FALSE(static_cast<bool>(idx.View(8)));
}

TEST(InvertedIndexTest, BoundsReflectMaxima) {
  InvertedIndex idx(0);
  idx.Add(1, P(10, 5.0f, 100, 2));
  idx.Add(1, P(11, 9.0f, 300, 8));
  const TermBounds bounds = idx.Bounds(1);
  EXPECT_TRUE(bounds.present);
  EXPECT_EQ(bounds.max_tf, 8u);
  EXPECT_FALSE(idx.Bounds(42).present);
}

TEST(InvertedIndexTest, CompressAllPreservesContent) {
  InvertedIndex idx(1);
  for (int t = 0; t < 5; ++t) {
    for (int i = 0; i < 20; ++i) {
      idx.Add(t, P(i, static_cast<float>(i), 100 + i, 1 + i % 3));
    }
  }
  idx.SealAll();
  const std::size_t plain_bytes = idx.MemoryBytes();
  idx.CompressAll();
  EXPECT_TRUE(idx.compressed());
  EXPECT_LT(idx.MemoryBytes(), plain_bytes);
  EXPECT_EQ(idx.num_postings(), 100u);
  EXPECT_EQ(idx.num_terms(), 5u);

  // Views decode on demand.
  const TermPostingsView view = idx.View(3);
  ASSERT_TRUE(static_cast<bool>(view));
  EXPECT_EQ(view->size(), 20u);
  EXPECT_TRUE(view->sealed());

  // Bounds survive compression.
  const TermBounds bounds = idx.Bounds(3);
  EXPECT_TRUE(bounds.present);
  EXPECT_EQ(bounds.max_tf, 3u);

  // Plain access is gone.
  EXPECT_EQ(idx.GetPlain(3), nullptr);
}

TEST(InvertedIndexTest, TakeTermsEmptiesIndex) {
  InvertedIndex idx(0);
  idx.Add(1, P(1, 1.0f, 1, 1));
  idx.Add(2, P(2, 2.0f, 2, 2));
  auto terms = idx.TakeTerms();
  EXPECT_EQ(terms.size(), 2u);
  EXPECT_EQ(idx.num_postings(), 0u);
  EXPECT_EQ(idx.num_terms(), 0u);
}

TEST(InvertedIndexTest, PutReplacesExisting) {
  InvertedIndex idx(1);
  TermPostings a;
  a.Append(P(1, 1.0f, 1, 1));
  idx.Put(5, std::move(a));
  EXPECT_EQ(idx.num_postings(), 1u);

  TermPostings b;
  b.Append(P(2, 2.0f, 2, 2));
  b.Append(P(3, 3.0f, 3, 3));
  idx.Put(5, std::move(b));
  EXPECT_EQ(idx.num_postings(), 2u);
  EXPECT_EQ(idx.GetPlain(5)->size(), 2u);
}

TEST(InvertedIndexTest, ForEachTermVisitsAll) {
  InvertedIndex idx(0);
  idx.Add(1, P(1, 1.0f, 1, 1));
  idx.Add(2, P(2, 2.0f, 2, 2));
  idx.Add(3, P(3, 3.0f, 3, 3));
  int visited = 0;
  std::size_t postings = 0;
  idx.ForEachTerm([&](TermId term, const TermPostings& p) {
    (void)term;
    ++visited;
    postings += p.size();
  });
  EXPECT_EQ(visited, 3);
  EXPECT_EQ(postings, 3u);
}

TEST(InvertedIndexTest, ForEachTermWorksCompressed) {
  InvertedIndex idx(1);
  idx.Add(1, P(1, 1.0f, 1, 1));
  idx.Add(1, P(2, 2.0f, 2, 2));
  idx.SealAll();
  idx.CompressAll();
  std::size_t postings = 0;
  idx.ForEachTerm([&](TermId, const TermPostings& p) { postings += p.size(); });
  EXPECT_EQ(postings, 2u);
}

}  // namespace
}  // namespace rtsi::index

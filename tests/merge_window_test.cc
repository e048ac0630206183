// Queries inside a merge's publication window (ctest labels:
// concurrency, sanitizer).
//
// A merge builds its output while the published view still serves the
// inputs, then swaps the output in. Everything a query reads besides the
// view — the live-term table's exact totals, the stream table's component
// counts — must keep describing the *published* view for that whole
// window (DESIGN.md §6e): a stream whose postings still span several
// visible inputs must keep its live-table totals until the swap, or a
// query scores it from one input's partial tf.
//
// The test pauses every synchronous merge between its on_stream pass and
// the swap (RtsiIndex::SetPreSwapObserver), and asserts there that
//   * the full walk equals the full walk recorded at the last published
//     cascade step (same epoch, same content: it must be the same answer);
//   * the pruned walk equals the full walk.
// Deterministic: merges run on the inserting thread, so the pause points
// and the content at each are fixed by the workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/rtsi_index.h"

namespace rtsi::core {
namespace {

void ExpectBitIdentical(const std::vector<ScoredStream>& got,
                        const std::vector<ScoredStream>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].stream, want[i].stream) << context << " rank " << i;
    ASSERT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

TEST(MergeWindowTest, QueriesBeforeSwapMatchPublishedView) {
  RtsiConfig config;
  config.lsm.delta = 40;  // A freeze every few steps, merges every few more.
  config.lsm.num_l0_shards = 2;
  // Streams are finished long after their first windows sealed; the
  // bound's live ceilings keep pruning lossless there (see core/config.h).
  RtsiIndex index(config);

  constexpr TermId kVocab = 6;
  constexpr int kK = 1000;  // Every candidate: any score change shows.
  std::vector<std::vector<TermId>> probes;
  for (TermId a = 0; a < kVocab; ++a) {
    probes.push_back({a});
    probes.push_back({a, static_cast<TermId>((a + 1) % kVocab)});
  }

  Timestamp now = 0;
  const auto full_walk = [&](const std::vector<TermId>& q) {
    index.SetUseBound(false);
    auto results = index.Query(q, kK, now);
    index.SetUseBound(true);
    return results;
  };

  std::uint64_t published_epoch = 0;
  std::vector<std::vector<ScoredStream>> published;
  index.SetCascadeObserver([&] {
    published_epoch = index.tree().epoch();
    published.clear();
    for (const auto& q : probes) published.push_back(full_walk(q));
  });
  int pauses = 0;
  index.SetPreSwapObserver([&] {
    ++pauses;
    ASSERT_EQ(index.tree().epoch(), published_epoch);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const std::string context =
          "pause " + std::to_string(pauses) + " probe " + std::to_string(p);
      const auto full = full_walk(probes[p]);
      ExpectBitIdentical(full, published[p], context + " full vs published");
      ExpectBitIdentical(index.Query(probes[p], kK, now), full,
                         context + " pruned vs full");
    }
  });

  // Every stream broadcasts three windows ten steps apart and then
  // finishes, so its postings land in three L0 epochs; later merges
  // consolidate them after the stream stopped, which is when the
  // live-table entries are due to go.
  Rng rng(4242);
  constexpr int kStreams = 60;
  constexpr int kGap = 10;
  for (int step = 0; step < kStreams + 2 * kGap; ++step) {
    for (int w = 0; w < 3; ++w) {
      const int s = step - w * kGap;
      if (s < 0 || s >= kStreams) continue;
      std::vector<TermCount> terms;
      for (TermId term = 0; term < kVocab; ++term) {
        if (rng.NextBool(0.6)) {
          terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
        }
      }
      const auto stream = static_cast<StreamId>(s);
      index.InsertWindow(stream, now += kMicrosPerSecond, terms, w < 2);
      if (w == 2) index.FinishStream(stream);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(pauses, 5) << "workload too small to pause merges";
}

// A stream evicted from the live-term table (stopped, consolidated into
// one sealed component) that receives another window spans two
// components again: the table must hold its exact totals — the sealed
// part plus the new window — not just the new window, and the term must
// not count twice in the document frequency. A twin that never stops the
// stream (so never evicts it) must score it identically.
TEST(MergeWindowTest, ResumedStreamGetsItsSealedTotalsBack) {
  RtsiConfig config;
  config.lsm.delta = 20;
  config.lsm.num_l0_shards = 1;
  RtsiIndex index(config);
  RtsiIndex twin(config);
  constexpr StreamId kStream = 1;
  constexpr TermId kTerm = 7;
  Timestamp now = 0;
  StreamId filler = 100;
  const auto fill = [&](int windows) {
    for (int i = 0; i < windows; ++i) {
      now += kMicrosPerSecond;
      for (RtsiIndex* idx : {&index, &twin}) {
        idx->InsertWindow(filler, now, {{kTerm, 1}, {8, 1}}, false);
      }
      ++filler;
    }
  };
  const auto insert = [&](TermFreq tf, bool live) {
    now += kMicrosPerSecond;
    index.InsertWindow(kStream, now, {{kTerm, tf}}, live);
    twin.InsertWindow(kStream, now, {{kTerm, tf}}, true);
  };

  insert(2, true);
  fill(15);  // Seals the first window away from the second.
  insert(3, false);
  index.FinishStream(kStream);
  for (int round = 0;
       round < 200 && index.live_table().ContainsStream(kStream); ++round) {
    fill(10);
  }
  ASSERT_FALSE(index.live_table().ContainsStream(kStream))
      << "the stream was never consolidated and evicted";
  ASSERT_TRUE(twin.live_table().ContainsStream(kStream));

  insert(1, true);
  EXPECT_EQ(index.live_table().GetTotal(kStream, kTerm), 6u);
  EXPECT_EQ(index.doc_freq().DocumentFrequency(kTerm),
            twin.doc_freq().DocumentFrequency(kTerm));
  ExpectBitIdentical(index.Query({kTerm}, 1000, now),
                     twin.Query({kTerm}, 1000, now), "resumed stream");
}

}  // namespace
}  // namespace rtsi::core

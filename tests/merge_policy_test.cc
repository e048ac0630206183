// Compaction policies: geometric (Algorithm 1), size-tiered, and full
// compaction must return identical query results while trading write
// amplification against read-path run counts. Also covers the v4
// snapshot fixture restored into a tiered-policy tree.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/rtsi_index.h"
#include "storage/snapshot.h"

#ifndef RTSI_TEST_DATA_DIR
#error "RTSI_TEST_DATA_DIR must point at tests/data"
#endif

namespace rtsi::core {
namespace {

RtsiConfig PolicyConfig(lsm::MergePolicy policy) {
  RtsiConfig config;
  config.lsm.delta = 150;
  config.lsm.num_l0_shards = 4;
  config.lsm.policy = policy;
  return config;
}

constexpr lsm::MergePolicy kAllPolicies[] = {
    lsm::MergePolicy::kGeometric,
    lsm::MergePolicy::kTiered,
    lsm::MergePolicy::kFullCompaction,
};

/// Inserts the shared deterministic workload (seeded) into `index`.
void InsertWorkload(RtsiIndex& index, std::uint64_t seed, int num_streams) {
  Rng rng(seed);
  Timestamp t = 0;
  for (StreamId s = 0; s < static_cast<StreamId>(num_streams); ++s) {
    std::vector<TermCount> terms;
    std::set<TermId> used;
    for (int i = 0; i < 4; ++i) {
      const auto term = static_cast<TermId>(rng.NextUint64(40));
      if (used.insert(term).second) {
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
      }
    }
    t += kMicrosPerSecond;
    index.InsertWindow(s, t, terms, false);
    index.FinishStream(s);
  }
  index.WaitForMerges();
}

TEST(MergePolicyTest, FullCompactionKeepsOneComponent) {
  RtsiIndex index(PolicyConfig(lsm::MergePolicy::kFullCompaction));
  Timestamp t = 0;
  for (StreamId s = 0; s < 400; ++s) {
    index.InsertWindow(s, t += kMicrosPerSecond,
                       {{static_cast<TermId>(s % 30), 2}}, false);
    index.FinishStream(s);
  }
  EXPECT_LE(index.tree().num_levels(), 1u);
  EXPECT_LE(index.tree().num_runs(), 1u);
  EXPECT_EQ(index.tree().total_postings(), 400u);
  EXPECT_GT(index.GetMergeStats().merges, 0u);
}

TEST(MergePolicyTest, PoliciesReturnIdenticalResults) {
  RtsiIndex geometric(PolicyConfig(lsm::MergePolicy::kGeometric));
  RtsiIndex tiered(PolicyConfig(lsm::MergePolicy::kTiered));
  RtsiIndex full(PolicyConfig(lsm::MergePolicy::kFullCompaction));

  Rng rng(3);
  Timestamp t = 0;
  for (StreamId s = 0; s < 500; ++s) {
    std::vector<TermCount> terms;
    std::set<TermId> used;
    for (int i = 0; i < 4; ++i) {
      const auto term = static_cast<TermId>(rng.NextUint64(40));
      if (used.insert(term).second) {
        terms.push_back({term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
      }
    }
    t += kMicrosPerSecond;
    geometric.InsertWindow(s, t, terms, false);
    tiered.InsertWindow(s, t, terms, false);
    full.InsertWindow(s, t, terms, false);
    geometric.FinishStream(s);
    tiered.FinishStream(s);
    full.FinishStream(s);
  }
  for (TermId q = 0; q < 40; ++q) {
    const auto r1 = geometric.Query({q, (q + 13) % 40}, 10, t);
    const auto r2 = full.Query({q, (q + 13) % 40}, 10, t);
    const auto r3 = tiered.Query({q, (q + 13) % 40}, 10, t);
    ASSERT_EQ(r1.size(), r2.size()) << q;
    ASSERT_EQ(r1.size(), r3.size()) << q;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      ASSERT_EQ(r1[i].stream, r2[i].stream) << q << " rank " << i;
      ASSERT_EQ(r1[i].stream, r3[i].stream) << q << " rank " << i;
      ASSERT_NEAR(r1[i].score, r2[i].score, 1e-9) << q << " rank " << i;
      ASSERT_NEAR(r1[i].score, r3[i].score, 1e-9) << q << " rank " << i;
    }
  }
}

// The property the ablation bench measures, asserted as an invariant:
// whatever merge interleaving a policy and delta produce, top-k results
// match a never-merged sequential full walk (no pruning, no skip
// headers) over the same inserts.
TEST(MergePolicyTest, EveryPolicyMatchesFullWalkAcrossInterleavings) {
  // Oracle: delta so large nothing ever leaves L0, walked exhaustively.
  RtsiConfig oracle_config;
  oracle_config.lsm.delta = 1u << 20;
  oracle_config.lsm.num_l0_shards = 4;
  auto oracle = std::make_unique<RtsiIndex>(oracle_config);
  oracle->SetUseBound(false);
  oracle->SetUseSkipHeader(false);
  InsertWorkload(*oracle, /*seed=*/17, /*num_streams=*/600);

  for (const auto policy : kAllPolicies) {
    // Different deltas force different freeze points and cascade depths
    // — different merge interleavings of the same posting stream.
    for (const std::size_t delta : {80u, 150u, 400u}) {
      RtsiConfig config = PolicyConfig(policy);
      config.lsm.delta = delta;
      RtsiIndex index(config);
      InsertWorkload(index, /*seed=*/17, /*num_streams=*/600);
      for (TermId q = 0; q < 40; q += 3) {
        const Timestamp now = 600 * kMicrosPerSecond;
        const auto expect = oracle->Query({q, (q + 7) % 40}, 10, now);
        const auto got = index.Query({q, (q + 7) % 40}, 10, now);
        ASSERT_EQ(got.size(), expect.size())
            << lsm::MergePolicyName(policy) << " delta " << delta
            << " term " << q;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].stream, expect[i].stream)
              << lsm::MergePolicyName(policy) << " delta " << delta
              << " term " << q << " rank " << i;
          ASSERT_NEAR(got[i].score, expect[i].score, 1e-9)
              << lsm::MergePolicyName(policy) << " delta " << delta
              << " term " << q << " rank " << i;
        }
      }
    }
  }
}

TEST(MergePolicyTest, FullCompactionDoesMoreMergeWork) {
  lsm::MergeStats stats_geometric, stats_full;
  for (const auto policy : {lsm::MergePolicy::kGeometric,
                            lsm::MergePolicy::kFullCompaction}) {
    RtsiIndex index(PolicyConfig(policy));
    Timestamp t = 0;
    for (StreamId s = 0; s < 1500; ++s) {
      index.InsertWindow(s, t += kMicrosPerSecond,
                         {{static_cast<TermId>(s % 10), 1}}, false);
      index.FinishStream(s);
    }
    if (policy == lsm::MergePolicy::kGeometric) {
      stats_geometric = index.GetMergeStats();
    } else {
      stats_full = index.GetMergeStats();
    }
  }
  EXPECT_GT(stats_full.postings_in, stats_geometric.postings_in);
}

TEST(MergePolicyTest, TieredDoesLessMergeWorkThanGeometric) {
  // Write amplification proxy: postings read into merges. Tiering only
  // merges once tier_runs runs pile up, so most freezes do no merge work
  // at all; the geometric cascade rewrites level 1 on every freeze.
  lsm::MergeStats stats_geometric, stats_tiered;
  std::size_t tiered_runs = 0;
  for (const auto policy :
       {lsm::MergePolicy::kGeometric, lsm::MergePolicy::kTiered}) {
    RtsiIndex index(PolicyConfig(policy));
    Timestamp t = 0;
    for (StreamId s = 0; s < 3000; ++s) {
      index.InsertWindow(s, t += kMicrosPerSecond,
                         {{static_cast<TermId>(s % 10), 1}}, false);
      index.FinishStream(s);
    }
    if (policy == lsm::MergePolicy::kGeometric) {
      stats_geometric = index.GetMergeStats();
    } else {
      stats_tiered = index.GetMergeStats();
      tiered_runs = index.tree().num_runs();
    }
  }
  EXPECT_LT(stats_tiered.postings_in, stats_geometric.postings_in);
  // The flip side of the bargain: more runs on the read path.
  EXPECT_GE(tiered_runs, 2u);
}

TEST(MergePolicyTest, LazyDeletionStillWorks) {
  for (const auto policy : kAllPolicies) {
    RtsiIndex index(PolicyConfig(policy));
    Timestamp t = 0;
    for (StreamId s = 0; s < 200; ++s) {
      index.InsertWindow(s, t += kMicrosPerSecond, {{5, 1}}, false);
      index.FinishStream(s);
    }
    for (StreamId s = 0; s < 100; ++s) index.DeleteStream(s);
    // Enough post-delete volume that even the tiered policy (which defers
    // merging until tier_runs runs accumulate) folds the deleted runs.
    for (StreamId s = 500; s < 1300; ++s) {
      index.InsertWindow(s, t += kMicrosPerSecond, {{6, 1}}, false);
      index.FinishStream(s);
    }
    EXPECT_GT(index.GetMergeStats().purged_postings, 0u)
        << lsm::MergePolicyName(policy);
    EXPECT_EQ(index.Query({5}, 500, t).size(), 100u)
        << lsm::MergePolicyName(policy);
  }
}

// ---------------------------------------------------------------------
// Mixed-version snapshots: the checked-in v4 fixture (written by the
// pre-multi-run-levels code) restored into a tree that then compacts
// with the tiered policy.

/// Rebuilds, insert-for-insert, the index the v4 fixture was generated
/// from (tools kept in sync with the fixture generator's recipe).
std::unique_ptr<RtsiIndex> BuildV4FixtureOracle() {
  RtsiConfig config;
  config.lsm.delta = 256;
  config.lsm.rho = 2.0;
  config.lsm.num_l0_shards = 2;
  auto index = std::make_unique<RtsiIndex>(config);
  Rng rng(47);
  Timestamp t = 0;
  for (StreamId s = 0; s < 120; ++s) {
    for (int w = 0; w < 3; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 8; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(120));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      t += kMicrosPerSecond;
      index->InsertWindow(s, t, terms, w < 2);
    }
    if (s % 3 == 0) index->FinishStream(s);
    index->UpdatePopularity(s, rng.NextUint64(300));
  }
  index->WaitForMerges();
  return index;
}

void ExpectSameTopK(RtsiIndex& got, RtsiIndex& expect, Timestamp now,
                    const char* label) {
  for (TermId q = 0; q < 120; q += 7) {
    const auto r_got = got.Query({q, (q + 11) % 120}, 10, now);
    const auto r_expect = expect.Query({q, (q + 11) % 120}, 10, now);
    ASSERT_EQ(r_got.size(), r_expect.size()) << label << " term " << q;
    for (std::size_t i = 0; i < r_got.size(); ++i) {
      ASSERT_EQ(r_got[i].stream, r_expect[i].stream)
          << label << " term " << q << " rank " << i;
      ASSERT_NEAR(r_got[i].score, r_expect[i].score, 1e-9)
          << label << " term " << q << " rank " << i;
    }
  }
}

TEST(MergePolicyTest, V4FixtureRestoresIntoTieredTree) {
  const std::string fixture =
      std::string(RTSI_TEST_DATA_DIR) + "/index_v4.snap";
  std::uint64_t journal_epoch = 0;
  auto loaded = storage::LoadIndexSnapshot(fixture, &journal_epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto index = std::move(loaded).value();
  EXPECT_EQ(journal_epoch, 11u);
  // Compare the trees by exhaustive walk: this checks restored contents;
  // pruning is checked by the oracle suites.
  index->SetUseBound(false);
  // v4 predates the policy field: the restored tree runs the default
  // geometric cascade its writer ran.
  EXPECT_EQ(index->tree().policy(), lsm::MergePolicy::kGeometric);

  auto oracle = BuildV4FixtureOracle();
  oracle->SetUseBound(false);
  EXPECT_EQ(index->tree().total_postings(),
            oracle->tree().total_postings());
  Timestamp now = 360 * kMicrosPerSecond;
  ExpectSameTopK(*index, *oracle, now, "restored-v4");

  // Switch the restored tree to tiered compaction and keep ingesting the
  // same stream of windows into both: the old one-run-per-level shape is
  // valid tiered input, runs accumulate on top of it, and results stay
  // identical to the geometric oracle throughout.
  index->SetMergePolicy(lsm::MergePolicy::kTiered);
  Rng rng(91);
  Timestamp t = now;
  for (StreamId s = 200; s < 320; ++s) {
    for (int w = 0; w < 3; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 8; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(120));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      t += kMicrosPerSecond;
      index->InsertWindow(s, t, terms, false);
      oracle->InsertWindow(s, t, terms, false);
    }
    index->FinishStream(s);
    oracle->FinishStream(s);
  }
  index->WaitForMerges();
  oracle->WaitForMerges();
  EXPECT_GT(index->GetMergeStats().merges + index->tree().num_runs(), 0u);
  ExpectSameTopK(*index, *oracle, t, "tiered-after-restore");
}

}  // namespace
}  // namespace rtsi::core

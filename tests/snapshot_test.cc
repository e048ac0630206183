// Snapshot save/restore: round-trip fidelity, corruption detection, and
// continued operation (inserts + merges) after restore.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "index/compressed_postings.h"
#include "storage/file_io.h"
#include "workload/corpus.h"
#include "workload/driver.h"

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using core::RtsiIndex;
using core::TermCount;

std::string TempPath(const char* name) {
  return std::string("/tmp/rtsi_snapshot_test_") + name + ".snap";
}

RtsiConfig SmallConfig() {
  RtsiConfig config;
  config.lsm.delta = 200;
  config.lsm.num_l0_shards = 4;
  return config;
}

// Builds a nontrivial index: merges, live + finished + deleted streams,
// popularity updates, L0 residue.
std::unique_ptr<RtsiIndex> BuildPopulatedIndex(const RtsiConfig& config) {
  auto index = std::make_unique<RtsiIndex>(config);
  Rng rng(7);
  Timestamp t = 0;
  for (StreamId s = 0; s < 120; ++s) {
    const int windows = 1 + static_cast<int>(rng.NextUint64(4));
    for (int w = 0; w < windows; ++w) {
      std::vector<TermCount> terms;
      std::set<TermId> used;
      for (int i = 0; i < 6; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(40));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      t += kMicrosPerSecond;
      index->InsertWindow(s, t, terms, w + 1 < windows);
    }
    if (s % 3 != 0) index->FinishStream(s);  // Every third stays live.
    if (s % 17 == 0) index->DeleteStream(s);
    index->UpdatePopularity(s, rng.NextUint64(500));
  }
  return index;
}

TEST(SnapshotTest, JournalEpochRoundTrips) {
  const std::string path = TempPath("epoch");
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, kMicrosPerSecond, {{5, 2}}, true);
  ASSERT_TRUE(SaveIndexSnapshot(index, path, /*journal_epoch=*/42).ok());
  std::uint64_t epoch = 99;
  auto loaded = LoadIndexSnapshot(path, &epoch);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(epoch, 42u);

  // The default (epoch-less) save carries epoch 0, matching the pre-v3
  // semantics of "replay every journal".
  ASSERT_TRUE(SaveIndexSnapshot(index, path).ok());
  epoch = 99;
  ASSERT_TRUE(LoadIndexSnapshot(path, &epoch).ok());
  EXPECT_EQ(epoch, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveLeavesNoTemporaryBehind) {
  const std::string path = TempPath("tmpclean");
  RtsiIndex index(SmallConfig());
  index.InsertWindow(1, kMicrosPerSecond, {{5, 2}}, true);
  ASSERT_TRUE(SaveIndexSnapshot(index, path).ok());
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "snapshot temporary not cleaned up";
  if (tmp != nullptr) std::fclose(tmp);
  ASSERT_TRUE(LoadIndexSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32(0, "123456789", 9), 0xCBF43926u);
}

TEST(SnapshotTest, RoundTripPreservesQueryResults) {
  const std::string path = TempPath("roundtrip");
  const RtsiConfig config = SmallConfig();
  auto original = BuildPopulatedIndex(config);
  ASSERT_TRUE(SaveIndexSnapshot(*original, path).ok());

  auto loaded_result = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  auto& loaded = *loaded_result.value();

  EXPECT_EQ(loaded.tree().total_postings(),
            original->tree().total_postings());
  EXPECT_EQ(loaded.stream_table().size(), original->stream_table().size());
  EXPECT_EQ(loaded.live_table().num_entries(),
            original->live_table().num_entries());
  EXPECT_EQ(loaded.doc_freq().num_documents(),
            original->doc_freq().num_documents());

  const Timestamp now = 1'000'000'000;
  for (TermId a = 0; a < 40; ++a) {
    const auto r1 = original->Query({a, (a + 11) % 40}, 10, now);
    const auto r2 = loaded.Query({a, (a + 11) % 40}, 10, now);
    ASSERT_EQ(r1.size(), r2.size()) << a;
    for (std::size_t i = 0; i < r1.size(); ++i) {
      ASSERT_EQ(r1[i].stream, r2[i].stream) << a << " rank " << i;
      ASSERT_NEAR(r1[i].score, r2[i].score, 1e-12) << a << " rank " << i;
    }
  }
  std::remove(path.c_str());
}

// v2 persists per-component live-freshness ceilings and re-registers
// stream residencies on load, so pruning on the restored index is both
// sound (matches an unbounded full walk) and kept tight by post-restore
// inserts (later windows keep bumping the restored cells).
TEST(SnapshotTest, CeilingsSurviveRestoreAndStayTight) {
  const std::string path = TempPath("ceilings");
  RtsiConfig config = SmallConfig();
  auto original = BuildPopulatedIndex(config);
  ASSERT_TRUE(SaveIndexSnapshot(*original, path).ok());
  auto loaded_result = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded_result.ok());
  auto& loaded = *loaded_result.value();

  // Every restored sealed component carries an identity and a ceiling
  // cell dominating its own stored freshness.
  for (const auto& component : loaded.tree().SealedSnapshot()) {
    EXPECT_NE(component->component_id(), kInvalidComponentId);
    ASSERT_TRUE(component->has_ceiling());
    EXPECT_GE(component->LiveFrshCeiling(), component->max_stored_frsh());
  }

  // Re-insert old streams far in the future: their sealed postings' live
  // freshness runs ahead of everything stored, the regime where a stale
  // ceiling would prune top-k streams away.
  Timestamp t = 5'000'000'000;
  for (StreamId s = 0; s < 120; s += 4) {
    loaded.InsertWindow(s, t += kMicrosPerSecond, {{7, 1}}, true);
  }
  for (TermId a = 0; a < 40; ++a) {
    const std::vector<TermId> q = {a, (a + 13) % 40};
    loaded.SetUseBound(true);
    const auto pruned = loaded.Query(q, 30, t);
    loaded.SetUseBound(false);
    const auto full = loaded.Query(q, 30, t);
    ASSERT_EQ(pruned.size(), full.size()) << a;
    for (std::size_t i = 0; i < pruned.size(); ++i) {
      ASSERT_EQ(pruned[i].stream, full[i].stream) << a << " rank " << i;
      ASSERT_EQ(pruned[i].score, full[i].score) << a << " rank " << i;
    }
  }
  std::remove(path.c_str());
}

// The config section's bound-mode slot: files written while a second,
// snapshot-based bound mode existed hold 0 (its default) or 1. Both load
// and prune with the one sound bound; any other value is a corrupt
// config section.
TEST(SnapshotTest, BoundSlotLoadsOldModesAndRejectsOthers) {
  const std::string path = TempPath("boundslot");
  auto original = BuildPopulatedIndex(SmallConfig());
  ASSERT_TRUE(SaveIndexSnapshot(*original, path).ok());

  // magic(8) version(4) delta(8) rho(8) compress(4) shards(8) weights and
  // tau(4x8) use_bound(4), then the slot.
  constexpr std::size_t kSlotOffset = 76;
  std::vector<std::uint8_t> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  ASSERT_GT(bytes.size(), kSlotOffset + 8);
  EXPECT_EQ(bytes[kSlotOffset], 1u);  // The writer's fixed value.
  auto write_slot = [&](std::uint32_t slot) {
    for (int i = 0; i < 4; ++i) {
      bytes[kSlotOffset + i] = static_cast<std::uint8_t>(slot >> (8 * i));
    }
    const std::size_t payload = bytes.size() - 4;
    const std::uint32_t crc = Crc32(0, bytes.data(), payload);
    for (int i = 0; i < 4; ++i) {
      bytes[payload + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  };

  write_slot(0);
  auto loaded_result = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  auto& loaded = *loaded_result.value();
  for (TermId a = 0; a < 40; ++a) {
    const std::vector<TermId> q = {a, (a + 7) % 40};
    const Timestamp now = 1'000 * kMicrosPerSecond;
    loaded.SetUseBound(true);
    const auto pruned = loaded.Query(q, 5, now);
    loaded.SetUseBound(false);
    const auto full = loaded.Query(q, 5, now);
    ASSERT_EQ(pruned.size(), full.size()) << a;
    for (std::size_t i = 0; i < pruned.size(); ++i) {
      ASSERT_EQ(pruned[i].stream, full[i].stream) << a << " rank " << i;
      ASSERT_EQ(pruned[i].score, full[i].score) << a << " rank " << i;
    }
  }

  write_slot(7);
  EXPECT_FALSE(LoadIndexSnapshot(path).ok());
  std::remove(path.c_str());
}

// A v1 snapshot (no per-component ceiling varint, no `finished` flag
// bit) must still load: the ceiling is reconstructed from the restored
// stream table when residencies are re-registered, so pruning stays
// sound without regenerating the file. Writes the legacy layout by hand.
TEST(SnapshotTest, LoadsVersion1Snapshots) {
  const std::string path = TempPath("v1compat");
  {
    SnapshotWriter writer;
    ASSERT_TRUE(writer.Open(path, 1).ok());
    // Config section (layout identical in v1 and v2).
    const RtsiConfig config;
    writer.WriteU64(config.lsm.delta);
    writer.WriteDouble(config.lsm.rho);
    writer.WriteU32(config.lsm.compress ? 1 : 0);
    writer.WriteU64(config.lsm.num_l0_shards);
    writer.WriteDouble(config.weights.pop);
    writer.WriteDouble(config.weights.rel);
    writer.WriteDouble(config.weights.frsh);
    writer.WriteDouble(config.freshness_tau_seconds);
    writer.WriteU32(config.use_bound ? 1 : 0);
    writer.WriteU32(0);  // Bound-mode slot: the default of that era.
    writer.WriteU32(static_cast<std::uint32_t>(config.default_k));
    // Document frequencies: 2 documents, term 7 in both.
    writer.WriteU64(2);
    writer.WriteVarint(1);
    writer.WriteVarint(7);
    writer.WriteVarint(2);
    // Stream table: streams 1 and 2, one component each, live.
    writer.WriteVarint(2);
    for (StreamId s = 1; s <= 2; ++s) {
      writer.WriteVarint(s);
      writer.WriteVarint(10 * s);   // pop_count
      writer.WriteVarint(100 * s);  // frsh
      writer.WriteVarint(1);        // component_count
      writer.WriteU32(1u | 4u);     // live | content_seen (no finished bit)
    }
    // Live-term table: empty.
    writer.WriteVarint(0);
    // One sealed component at level 1 — v1 layout: no ceiling varint
    // between the level and the term count.
    writer.WriteVarint(1);
    writer.WriteU32(1);
    writer.WriteVarint(1);
    writer.WriteVarint(7);
    index::TermPostings postings;
    postings.Append(index::Posting{1, 1.0f, 100, 2});
    postings.Append(index::Posting{2, 2.0f, 200, 3});
    postings.Seal();
    writer.WriteBlob(
        index::CompressedTermPostings::FromPostings(postings).blob());
    // No L0 postings.
    writer.WriteVarint(0);
    ASSERT_TRUE(writer.Finish().ok());
  }

  auto loaded_result = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded_result.ok()) << loaded_result.status().ToString();
  auto& loaded = *loaded_result.value();
  EXPECT_EQ(loaded.tree().total_postings(), 2u);

  // The ceiling is rebuilt from the restored stream table: every resident
  // stream's live freshness is covered even though v1 persisted none.
  const auto components = loaded.tree().SealedSnapshot();
  ASSERT_EQ(components.size(), 1u);
  ASSERT_TRUE(components[0]->has_ceiling());
  EXPECT_GE(components[0]->LiveFrshCeiling(), 200);

  // Residencies were re-registered on load: later inserts keep bumping.
  loaded.InsertWindow(1, 5'000, {{7, 1}}, true);
  EXPECT_GE(components[0]->LiveFrshCeiling(), 5'000);

  const auto results = loaded.Query({7}, 10, 1'000);
  EXPECT_EQ(results.size(), 2u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RestoredIndexKeepsWorking) {
  const std::string path = TempPath("keepworking");
  auto original = BuildPopulatedIndex(SmallConfig());
  ASSERT_TRUE(SaveIndexSnapshot(*original, path).ok());
  auto loaded_result = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded_result.ok());
  auto& loaded = *loaded_result.value();

  // New insertions must merge cleanly with restored components.
  Timestamp t = 2'000'000'000;
  for (StreamId s = 1000; s < 1200; ++s) {
    loaded.InsertWindow(s, t += kMicrosPerSecond, {{5, 2}, {900, 1}}, false);
    loaded.FinishStream(s);
  }
  const auto results = loaded.Query({900}, 300, t);
  EXPECT_EQ(results.size(), 200u);
  EXPECT_GT(loaded.GetMergeStats().merges, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, CompressedConfigRoundTrips) {
  const std::string path = TempPath("compressed");
  RtsiConfig config = SmallConfig();
  config.lsm.compress = true;
  auto original = BuildPopulatedIndex(config);
  ASSERT_TRUE(SaveIndexSnapshot(*original, path).ok());
  auto loaded_result = LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded_result.ok());
  auto& loaded = *loaded_result.value();
  EXPECT_TRUE(loaded.config().lsm.compress);
  EXPECT_EQ(loaded.tree().total_postings(),
            original->tree().total_postings());
  const auto r1 = original->Query({3}, 10, 1'000'000'000);
  const auto r2 = loaded.Query({3}, 10, 1'000'000'000);
  ASSERT_EQ(r1.size(), r2.size());
  std::remove(path.c_str());
}

TEST(SnapshotTest, DetectsCorruption) {
  const std::string path = TempPath("corrupt");
  auto original = BuildPopulatedIndex(SmallConfig());
  ASSERT_TRUE(SaveIndexSnapshot(*original, path).ok());

  // Flip one byte in the middle.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, size / 2, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(byte ^ 0xFF, f);
  std::fclose(f);

  const auto result = LoadIndexSnapshot(path);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, DetectsTruncation) {
  const std::string path = TempPath("truncated");
  auto original = BuildPopulatedIndex(SmallConfig());
  ASSERT_TRUE(SaveIndexSnapshot(*original, path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> data(size / 2);
  ASSERT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);

  EXPECT_FALSE(LoadIndexSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileReportsNotFound) {
  const auto result = LoadIndexSnapshot("/tmp/does_not_exist_rtsi.snap");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, BadMagicRejected) {
  const std::string path = TempPath("badmagic");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[] = "NOTASNAPSHOTFILE________________";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  const auto result = LoadIndexSnapshot(path);
  EXPECT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptyIndexRoundTrips) {
  const std::string path = TempPath("empty");
  RtsiIndex index(SmallConfig());
  ASSERT_TRUE(SaveIndexSnapshot(index, path).ok());
  auto result = LoadIndexSnapshot(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->tree().total_postings(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtsi::storage

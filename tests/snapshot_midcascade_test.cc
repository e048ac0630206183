// Tentpole acceptance test for multi-component levels: a snapshot taken
// at ANY published step of a merge cascade — after the freeze, after each
// intermediate fold — is a fully restorable state. The restored index
// answers the probe queries identically to the live (uninterrupted)
// index at the moment the snapshot was taken, round-trips its exact
// per-level run shape, and keeps compacting correctly from the
// mid-cascade shape (the stateless policies re-plan from whatever levels
// they see). Verified for all three compaction policies, plus a
// power-loss variant where the snapshot write itself is killed at every
// filesystem syscall boundary.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/rtsi_index.h"
#include "storage/fault_injection.h"
#include "storage/snapshot.h"

namespace rtsi::storage {
namespace {

using core::RtsiConfig;
using core::RtsiIndex;
using core::ScoredStream;
using core::TermCount;

const char* kDir = "/tmp/rtsi_midcascade_test";

std::string StepPath(std::size_t step) {
  return std::string(kDir) + "/step_" + std::to_string(step) + ".snap";
}

constexpr TermId kVocab = 30;
constexpr int kNumOps = 260;

RtsiConfig SmallConfig(lsm::MergePolicy policy) {
  RtsiConfig config;
  config.lsm.delta = 120;  // Small: many freezes, deep cascades.
  config.lsm.rho = 2.0;
  config.lsm.num_l0_shards = 2;
  config.lsm.policy = policy;
  config.lsm.tier_runs = 3;
  return config;
}

// One deterministic InsertWindow op (popularity updates are covered by
// the oracle suites).
struct Op {
  StreamId stream;
  Timestamp now;
  std::vector<TermCount> terms;
  bool finish;
};

std::vector<Op> MakeWorkload(std::uint64_t seed, int n, StreamId base) {
  Rng rng(seed);
  std::vector<Op> ops;
  Timestamp t = static_cast<Timestamp>(base) * kMicrosPerSecond;
  for (int i = 0; i < n; ++i) {
    Op op;
    op.stream = base + static_cast<StreamId>(i);
    op.now = (t += kMicrosPerSecond);
    std::set<TermId> used;
    for (int j = 0; j < 4; ++j) {
      const auto term = static_cast<TermId>(rng.NextUint64(kVocab));
      if (used.insert(term).second) {
        op.terms.push_back(
            {term, 1 + static_cast<TermFreq>(rng.NextUint64(3))});
      }
    }
    op.finish = (i % 2 == 0);
    ops.push_back(std::move(op));
  }
  return ops;
}

void Apply(RtsiIndex& index, const Op& op) {
  index.InsertWindow(op.stream, op.now, op.terms, !op.finish);
  if (op.finish) index.FinishStream(op.stream);
}

std::vector<ScoredStream> Probe(RtsiIndex& index, Timestamp now) {
  std::vector<ScoredStream> all;
  for (TermId q = 0; q < kVocab; q += 4) {
    auto r = index.Query({q, (q + 9) % kVocab}, 8, now);
    all.insert(all.end(), r.begin(), r.end());
  }
  return all;
}

bool SameResults(const std::vector<ScoredStream>& got,
                 const std::vector<ScoredStream>& expect) {
  if (got.size() != expect.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].stream != expect[i].stream) return false;
    if (std::abs(got[i].score - expect[i].score) > 1e-9) return false;
  }
  return true;
}

void ExpectSameResults(const std::vector<ScoredStream>& got,
                       const std::vector<ScoredStream>& expect,
                       const std::string& label) {
  ASSERT_EQ(got.size(), expect.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].stream, expect[i].stream) << label << " entry " << i;
    ASSERT_NEAR(got[i].score, expect[i].score, 1e-9)
        << label << " entry " << i;
  }
}

/// Everything recorded at one published cascade step, at the instant the
/// step's view went live: the uninterrupted index IS the oracle.
struct StepRecord {
  std::size_t step = 0;
  int ops_applied = 0;               // whole InsertWindow ops so far
  Timestamp now = 0;
  std::vector<std::size_t> runs_per_level;
  std::vector<ScoredStream> oracle;  // probe results of the live index
};

class SnapshotMidCascadeTest : public ::testing::Test {
 protected:
  void SetUp() override { ::mkdir(kDir, 0755); }
};

void RunSnapshotEveryStep(lsm::MergePolicy policy) {
  RtsiIndex index(SmallConfig(policy));
  const auto ops = MakeWorkload(/*seed=*/29, kNumOps, /*base=*/0);

  std::vector<StepRecord> records;
  int ops_applied = 0;
  Timestamp now = 0;
  // The observer runs after every published cascade step, with no tree
  // locks held — snapshotting and querying from it is the supported way
  // to capture a mid-cascade state.
  index.SetCascadeObserver([&] {
    StepRecord rec;
    rec.step = records.size();
    rec.ops_applied = ops_applied;
    rec.now = now;
    rec.runs_per_level = index.tree().RunsPerLevel();
    rec.oracle = Probe(index, now);
    ASSERT_TRUE(
        storage::SaveIndexSnapshot(index, StepPath(rec.step)).ok());
    records.push_back(std::move(rec));
  });

  for (const Op& op : ops) {
    now = op.now;
    Apply(index, op);
    ++ops_applied;
  }
  index.SetCascadeObserver(nullptr);

  ASSERT_GT(records.size(), 5u) << lsm::MergePolicyName(policy);
  // At least one captured state must be genuinely mid-cascade — a frozen
  // level-0 run still awaiting its fold. Those states were exactly the
  // unrestorable ones before multi-component levels.
  bool saw_l0_run = false;
  for (const auto& rec : records) {
    if (!rec.runs_per_level.empty() && rec.runs_per_level[0] > 0) {
      saw_l0_run = true;
    }
  }
  EXPECT_TRUE(saw_l0_run) << lsm::MergePolicyName(policy);

  for (const auto& rec : records) {
    const std::string label = std::string(lsm::MergePolicyName(policy)) +
                              " step " + std::to_string(rec.step);
    auto loaded = storage::LoadIndexSnapshot(StepPath(rec.step));
    ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
    auto restored = std::move(loaded).value();
    // Shape round-trips exactly, mid-cascade or not.
    EXPECT_EQ(restored->tree().RunsPerLevel(), rec.runs_per_level) << label;
    EXPECT_EQ(restored->tree().policy(), policy) << label;
    ExpectSameResults(Probe(*restored, rec.now), rec.oracle, label);
    std::remove(StepPath(rec.step).c_str());
  }
}

TEST_F(SnapshotMidCascadeTest, GeometricEveryStepRestorable) {
  RunSnapshotEveryStep(lsm::MergePolicy::kGeometric);
}

TEST_F(SnapshotMidCascadeTest, TieredEveryStepRestorable) {
  RunSnapshotEveryStep(lsm::MergePolicy::kTiered);
}

TEST_F(SnapshotMidCascadeTest, FullCompactionEveryStepRestorable) {
  RunSnapshotEveryStep(lsm::MergePolicy::kFullCompaction);
}

// A restored mid-cascade state is not a dead end: feeding it the rest of
// the workload produces the same results as an oracle that was never
// snapshotted — the stateless policy re-plans from the restored shape
// and compacts it back down.
void RunRestoreAndContinue(lsm::MergePolicy policy) {
  RtsiIndex index(SmallConfig(policy));
  const auto prefix = MakeWorkload(/*seed=*/31, kNumOps, /*base=*/0);
  const auto suffix =
      MakeWorkload(/*seed=*/33, 120, /*base=*/kNumOps + 100);

  // Snapshot at the LAST cascade step whose shape still holds a frozen
  // L0 run — the deepest mid-cascade seam the workload produces.
  const std::string path = std::string(kDir) + "/continue.snap";
  int snap_ops = -1;
  int ops_applied = 0;
  index.SetCascadeObserver([&] {
    const auto runs = index.tree().RunsPerLevel();
    if (!runs.empty() && runs[0] > 0) {
      ASSERT_TRUE(storage::SaveIndexSnapshot(index, path).ok());
      snap_ops = ops_applied;
    }
  });
  for (const Op& op : prefix) {
    Apply(index, op);
    ++ops_applied;
  }
  index.SetCascadeObserver(nullptr);
  ASSERT_GE(snap_ops, 0) << lsm::MergePolicyName(policy);

  auto loaded = storage::LoadIndexSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto restored = std::move(loaded).value();

  // Oracle: fresh index fed the same prefix-up-to-snapshot + suffix,
  // with its cascades running uninterrupted the whole time. The cascade
  // (and so the snapshot) fires after op `snap_ops` finished inserting
  // its window, so the prefix is inclusive.
  RtsiIndex oracle(SmallConfig(policy));
  for (int i = 0; i <= snap_ops; ++i) Apply(oracle, prefix[i]);
  Timestamp now = 0;
  for (const Op& op : suffix) {
    Apply(*restored, op);
    Apply(oracle, op);
    now = op.now;
  }
  restored->WaitForMerges();
  oracle.WaitForMerges();
  EXPECT_EQ(restored->tree().total_postings(),
            oracle.tree().total_postings())
      << lsm::MergePolicyName(policy);
  ExpectSameResults(Probe(*restored, now), Probe(oracle, now),
                    std::string(lsm::MergePolicyName(policy)) +
                        " continue-after-restore");
  std::remove(path.c_str());
}

TEST_F(SnapshotMidCascadeTest, GeometricRestoreAndContinue) {
  RunRestoreAndContinue(lsm::MergePolicy::kGeometric);
}

TEST_F(SnapshotMidCascadeTest, TieredRestoreAndContinue) {
  RunRestoreAndContinue(lsm::MergePolicy::kTiered);
}

TEST_F(SnapshotMidCascadeTest, FullCompactionRestoreAndContinue) {
  RunRestoreAndContinue(lsm::MergePolicy::kFullCompaction);
}

// Power-loss torture on the mid-cascade snapshot write itself: kill the
// save at every filesystem syscall boundary in turn. Whatever the crash
// point, the path must afterwards hold a loadable snapshot whose results
// match either the previous durable snapshot (write never committed) or
// the new one (write committed) — never a torn in-between.
TEST_F(SnapshotMidCascadeTest, CrashDuringMidCascadeSnapshotWrite) {
  const std::string path = std::string(kDir) + "/torture.snap";
  std::remove(path.c_str());

  RtsiIndex index(SmallConfig(lsm::MergePolicy::kTiered));
  const auto ops = MakeWorkload(/*seed=*/41, kNumOps, /*base=*/0);

  // Capture two mid-cascade states: an early one (becomes the durable
  // base snapshot) and the final index (the state being re-saved when
  // the "machine" loses power).
  std::size_t steps_seen = 0;
  Timestamp base_now = 0;
  Timestamp now = 0;
  std::vector<ScoredStream> base_oracle;
  index.SetCascadeObserver([&] {
    if (++steps_seen == 3) {
      base_now = now;
      base_oracle = Probe(index, now);
      ASSERT_TRUE(storage::SaveIndexSnapshot(index, path).ok());
    }
  });
  for (const Op& op : ops) {
    now = op.now;
    Apply(index, op);
  }
  index.SetCascadeObserver(nullptr);
  ASSERT_GE(steps_seen, 3u);
  ASSERT_FALSE(base_oracle.empty());
  const auto final_oracle = Probe(index, now);

  auto& faults = FaultInjection::Instance();
  for (std::uint64_t fault_at = 0;; ++fault_at) {
    faults.Enable();
    faults.ArmFaultAt(fault_at, /*crash=*/true);
    const Status status = storage::SaveIndexSnapshot(index, path);
    const bool crashed = faults.crash_triggered();
    faults.SimulateCrash({});
    faults.Disable();
    ASSERT_EQ(status.ok(), !crashed) << "fault " << fault_at;

    auto loaded = storage::LoadIndexSnapshot(path);
    ASSERT_TRUE(loaded.ok())
        << "fault " << fault_at << ": " << loaded.status().ToString();
    auto restored = std::move(loaded).value();
    if (crashed) {
      // Atomic write: either the old durable snapshot survived untouched
      // (crash before the rename committed) or the complete new one is in
      // place (crash after) — never a torn in-between.
      const bool is_base = SameResults(Probe(*restored, base_now),
                                       base_oracle);
      const bool is_final =
          is_base || SameResults(Probe(*restored, now), final_oracle);
      EXPECT_TRUE(is_base || is_final) << "fault " << fault_at;
    } else {
      ExpectSameResults(Probe(*restored, now), final_oracle, "committed");
      break;  // Fault point past the end of the write: done.
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtsi::storage

// The LSM-tree of inverted indices (Figure 2).
//
// Level 0 is mutable and sharded by term: insertions lock only the term's
// shard (the paper's "partially locking the inverted index"), queries take
// the shard's shared lock for the duration of one term scan. Levels >= 1
// are immutable components produced by merges.
//
// Every sealed level holds a *list* of runs, not a single resident: a
// just-frozen L0 lives at levels_[0], a tiered policy accumulates several
// runs per level by design, and a snapshot restored mid-cascade may land
// a detached input next to an over-capacity intermediate on the same
// level. Any such state is valid — the compaction policy re-plans from
// whatever run lists it finds, so every pinned view is a restorable
// snapshot (the snapshot-anywhere invariant, DESIGN.md §6h).
//
// The sealed structure is epoch-published: every structural change builds
// an immutable IndexView and swaps it in with one atomic shared_ptr
// store. Queries pin the current view and traverse it lock-free;
// pre-merge components stay alive because the views that reference them
// do, which subsumes Algorithm 2's mirror set (the refcount is the
// mirror). Writer-side bookkeeping (per-level run lists, the in-flight
// merge's detached inputs) is serialized by components_mu_, which no
// reader ever takes.
//
// Merging is delegated to a pluggable CompactionPolicy (Algorithm 1's
// geometric cascade by default; see compaction_policy.h): after an L0
// freeze the tree executes policy-planned N-way merge steps until the
// policy reports a settled shape.

#ifndef RTSI_LSM_LSM_TREE_H_
#define RTSI_LSM_LSM_TREE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>
#include <vector>

#include "common/atomic_shared_ptr.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/window_arena.h"
#include "index/inverted_index.h"
#include "lsm/compaction_policy.h"
#include "lsm/index_view.h"
#include "lsm/merge.h"

namespace rtsi::lsm {

class LsmTree {
 public:
  struct Config {
    std::size_t delta = 64 * 1024;  // I0 capacity, in postings.
    double rho = 4.0;               // Size ratio between adjacent levels.
    bool compress = false;          // Huffman-compress merged components.
    std::size_t num_l0_shards = 16;
    MergePolicy policy = MergePolicy::kGeometric;
    std::size_t tier_runs = 4;      // kTiered: runs accumulated per level
                                    // before the tier merges one level down.
    // Back unsealed L0 posting vectors with per-shard WindowArenas,
    // rotated at FreezeL0 (retired arenas are quarantined on the frozen
    // component until the last pinned view drops). Off = global heap.
    bool use_arena = true;
  };

  explicit LsmTree(const Config& config);

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  /// Appends one posting to the term's level-0 list and records the
  /// posting's stream as present in the current L0 epoch; returns true on
  /// the stream's first posting since the last freeze (the caller uses
  /// this to maintain per-stream component counts). Marking happens under
  /// the term-shard lock, so mark+add is atomic w.r.t. FreezeL0 (which
  /// holds every shard lock): the posting and its epoch mark always land
  /// on the same side of a freeze. Thread-safe.
  bool AddPosting(TermId term, const index::Posting& posting);

  /// Records that `stream` has postings in the current L0 epoch without
  /// adding a posting; returns true on the first call for this stream
  /// since the last freeze. Prefer the AddPosting return value — a freeze
  /// between this call and a later AddPosting splits mark and posting
  /// across epochs. Kept for tests.
  bool MarkStreamInL0(StreamId stream);

  /// True when `stream` has postings in the current L0 epoch.
  bool StreamInL0(StreamId stream) const;

  bool NeedsMerge() const {
    return l0_postings_.load(std::memory_order_relaxed) > config_.delta;
  }

  /// Runs the merge cascade if I0 is over capacity: freezes L0, then
  /// executes merge steps planned by the configured CompactionPolicy
  /// until the structure settles. Safe to call from any thread; merges
  /// are serialized. Queries proceed concurrently against whatever view
  /// they pinned. `hooks.on_cascade_step` (if set) fires after every
  /// published step with no tree locks held.
  void MergeCascade(const MergeHooks& hooks);

  /// Runs `fn(const index::TermPostings*)` for the term's L0 postings
  /// (nullptr when absent) under the shard's shared lock.
  template <typename Fn>
  void WithL0Term(TermId term, Fn&& fn) const {
    const L0Shard& shard = *l0_shards_[term % l0_shards_.size()];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    fn(shard.index.GetPlain(term));
  }

  /// Runs fn(TermId, const index::TermPostings&) for every L0 term, one
  /// shard at a time under its shared lock (snapshot save path).
  template <typename Fn>
  void ForEachL0Term(Fn&& fn) const {
    for (const auto& shard : l0_shards_) {
      std::shared_lock<std::shared_mutex> lock(shard->mu);
      shard->index.ForEachTerm(fn);
    }
  }

  /// Appends a sealed component to the run list of the level implied by
  /// its level() (snapshot restore path). Any level >= 0 is accepted and
  /// levels may receive several runs: a snapshot can be taken at any
  /// point of a merge cascade — frozen L0 at level 0, detached inputs
  /// and over-capacity intermediates sharing a level — and the next
  /// cascade re-plans from whatever shape was restored. Assigns the
  /// component a fresh id and live-freshness ceiling cell if it has none.
  Status RestoreSealedComponent(
      std::shared_ptr<index::InvertedIndex> component);

  /// Pins the currently published read view: the complete sealed
  /// component set plus its epoch, immutable for the pin's lifetime.
  /// Wait-free for readers; the one load a query performs on entry.
  IndexViewPtr PinView() const { return view_.Load(); }

  /// Convenience copy of the pinned view's component list (callers that
  /// want a vector rather than a view pin, e.g. snapshot save). Never
  /// contains duplicates.
  std::vector<std::shared_ptr<const index::InvertedIndex>> SealedSnapshot()
      const;

  /// Epoch of the currently published view (monotone; bumped on every
  /// freeze, merge swap and restore). Two equal epochs bracket an
  /// unchanged component set.
  std::uint64_t epoch() const { return PinView()->epoch; }

  std::size_t l0_postings() const {
    return l0_postings_.load(std::memory_order_relaxed);
  }

  std::size_t total_postings() const;

  /// Number of levels holding at least one run.
  std::size_t num_levels() const;

  /// Total sealed runs across all levels (a level can hold several).
  std::size_t num_runs() const;

  /// Run count per level, indexed by level (index 0 = frozen-L0 runs).
  /// Trailing empty levels are trimmed.
  std::vector<std::size_t> RunsPerLevel() const;

  std::size_t MemoryBytes() const;
  MergeStats GetMergeStats() const;
  const Config& config() const { return config_; }

  /// The active compaction policy. Defaults to Config::policy.
  MergePolicy policy() const {
    return policy_.load(std::memory_order_relaxed);
  }

  /// Switches the compaction policy. Takes effect at the next cascade
  /// (policies are stateless — each cascade re-plans from the current
  /// run lists, so switching never invalidates existing structure).
  void SetPolicy(MergePolicy policy) {
    policy_.store(policy, std::memory_order_relaxed);
  }

  // Lifecycle observability (rtsi_cli stats, leak assertions in tests).

  /// Number of IndexView objects alive: the published view plus every
  /// retired view still pinned by an in-flight reader.
  std::int64_t live_views() const {
    return view_gauge_->load(std::memory_order_relaxed);
  }

  /// Components that left the published view but are still alive because
  /// a pinned view references them (the mirror-era "extra copies").
  std::size_t retired_components() const;

  /// Bytes currently held by retired-but-still-pinned components.
  std::size_t RetiredBytes() const;

  /// The tracker skip-header bytes are charged to (kSkipHeader category).
  /// Shared so a component retired past the tree's lifetime can still
  /// release its charge.
  const std::shared_ptr<MemoryTracker>& memory_tracker() const {
    return mem_tracker_;
  }

  /// Aggregate allocation counters of the L0 ingest arenas (zeroed
  /// struct when use_arena is off). Counters (requests, upstream, free-
  /// list hits) are cumulative across arena rotations — monotone, so
  /// benches can diff them across a freeze; the gauges (owned/allocated
  /// bytes) reflect the current arenas only. Takes each shard's shared
  /// lock briefly; counters themselves are relaxed atomics.
  WindowArena::Stats ArenaStats() const;

 private:
  friend struct LsmTreeTestPeer;

  struct L0Shard {
    mutable std::shared_mutex mu;
    // Ingest arena for this shard's unsealed posting vectors; declared
    // before `index` so the index (whose vectors deallocate into the
    // arena) is destroyed first. Null when Config::use_arena is off.
    std::unique_ptr<WindowArena> arena;
    index::InvertedIndex index{0};
  };

  struct StreamSeenShard {
    std::mutex mu;
    std::unordered_set<StreamId> seen;
  };

  /// Freezes L0 into a sealed component appended to levels_[0] and
  /// published. The component receives a fresh id and ceiling cell, and
  /// `hooks.on_frozen` runs before it becomes query-visible. Returns
  /// nullptr — publishing nothing and bumping no epoch — when L0 holds no
  /// postings (a drifted l0_postings_ counter; the counter is reset so
  /// NeedsMerge() stops firing).
  std::shared_ptr<index::InvertedIndex> FreezeL0(const MergeHooks& hooks);

  /// Builds the view implied by levels_ + pending_, bumps the epoch, and
  /// publishes it; components that just left the view are recorded in the
  /// retired registry. Requires components_mu_.
  void PublishLocked();

  /// Moves one run from its level list into pending_ (detaching a merge
  /// input: still query-visible, no longer plannable). Requires
  /// components_mu_.
  void DetachRunLocked(const std::shared_ptr<const index::InvertedIndex>& run);

  /// Appends a run to its level's list. Requires components_mu_.
  void InstallRunLocked(std::shared_ptr<const index::InvertedIndex> run,
                        int level);

  /// Removes one component from pending_ by identity. Requires
  /// components_mu_.
  void ErasePendingLocked(const index::InvertedIndex* component);

  /// Never-reused component id (1-based; 0 = invalid).
  ComponentId AllocateComponentId() {
    return next_component_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Config config_;
  std::atomic<MergePolicy> policy_;
  std::vector<std::unique_ptr<L0Shard>> l0_shards_;
  std::vector<std::unique_ptr<StreamSeenShard>> stream_seen_;
  std::atomic<std::size_t> l0_postings_{0};

  // Writer-side structural state; readers go through view_ only.
  mutable std::mutex components_mu_;  // Guards levels_/pending_/publish.
  // levels_[l] holds the sealed runs at level l, oldest first; index 0 is
  // the home of frozen-L0 runs no merge has touched yet.
  LevelRuns levels_;
  // Query-visible components without a level-list entry: merge inputs
  // detached from their run lists while the output is built.
  std::vector<std::shared_ptr<const index::InvertedIndex>> pending_;
  AtomicSharedPtr<const IndexView> view_;
  // Counts IndexView objects alive (each view's deleter decrements); the
  // gauge is shared so a view pinned past the tree's lifetime stays safe.
  std::shared_ptr<std::atomic<std::int64_t>> view_gauge_;
  // Components that left the view; weak so the registry never extends a
  // lifetime — entries expire exactly when the last pinned view drops.
  mutable std::mutex retired_mu_;
  mutable std::vector<std::weak_ptr<const index::InvertedIndex>> retired_;
  std::atomic<ComponentId> next_component_id_{0};
  // Byte accounting for per-component skip headers; shared with the
  // components so retirement-after-tree-destruction still balances.
  std::shared_ptr<MemoryTracker> mem_tracker_ =
      std::make_shared<MemoryTracker>();

  std::mutex merge_mu_;  // At most one merge cascade at a time.
  mutable std::mutex stats_mu_;
  MergeStats merge_stats_;
  // Counters of ingest arenas retired by rotation (gauge fields zeroed),
  // so ArenaStats() stays monotone across freezes. Guarded by stats_mu_.
  WindowArena::Stats rotated_arena_stats_;
};

}  // namespace rtsi::lsm

#endif  // RTSI_LSM_LSM_TREE_H_

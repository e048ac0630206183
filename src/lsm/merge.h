// Component merging (Algorithm 2's CombineLists + lazy deletion).
//
// Merging consolidates duplicate postings: a live stream inserts one
// posting per 60-second window, so the same (term, stream) pair appears
// many times across (and within) components; the merged component keeps a
// single posting with the summed term frequency, the newest freshness and
// the largest popularity snapshot. Postings of deleted streams are purged
// here (lazy deletion). Merges are N-way: a compaction policy may fold
// any number of runs — a whole tier, or the classic two — in one pass.
// Hooks let the owning index maintain per-stream component counts and the
// live-term table.

#ifndef RTSI_LSM_MERGE_H_
#define RTSI_LSM_MERGE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/window_arena.h"
#include "index/inverted_index.h"

namespace rtsi::lsm {

struct MergeHooks {
  /// Lazy deletion predicate; postings of deleted streams are dropped.
  /// Consulted once per distinct stream per merge (memoized).
  std::function<bool(StreamId)> is_deleted;

  /// Called once per stream whose postings were purged by this merge.
  std::function<void(StreamId stream)> on_purged;

  /// Called once per distinct surviving stream seen during the merge,
  /// after all postings are combined and before the output is published.
  /// `copies` is the number of merge inputs holding postings of the
  /// stream (>= 1): the merge consolidates `copies` residencies into one.
  /// `merged` is the output component (already carrying its id and
  /// live-freshness ceiling cell), so the owner can register the stream's
  /// residency on it while pinned views keep serving queries against the
  /// inputs. Leave unset to skip stream tracking entirely (the tracking
  /// itself costs one hash-set insert per posting).
  std::function<void(StreamId stream, std::uint32_t copies,
                     const index::InvertedIndex& merged)>
      on_stream;

  /// Called by the owning LSM-tree once per distinct surviving stream
  /// *after* the merge output replaced its inputs in the published view
  /// (the inputs are no longer query-visible), with the same `copies` as
  /// on_stream: the owner drops the stream's residency entries for the
  /// retired input components `from`, and only now may it count the
  /// `copies` residencies as one. Until this fires the published view
  /// still holds every input, so the input residencies must stay
  /// registered (inserts keep bumping the inputs' live-freshness
  /// ceilings) and anything describing the stream's spread — its
  /// component count, its live-table totals — must stay as it was.
  std::function<void(StreamId stream, std::uint32_t copies,
                     const std::vector<ComponentId>& from)>
      on_retired;

  /// Called inside an L0 freeze — after the frozen component is sealed
  /// and given its identity/ceiling cell, before it becomes query-visible
  /// (still under every L0 shard lock, so no insert can race). The owner
  /// registers component residency for every stream in the frozen data.
  std::function<void(const index::InvertedIndex& frozen)> on_frozen;

  /// Called by MergeCascade after each merge output is built (every
  /// on_stream call done) and before the swap publishes it, with no tree
  /// locks held: the published view still serves the inputs. Test seam
  /// for pausing a merge inside its publication window; leave unset in
  /// production ingest paths.
  std::function<void()> on_pre_swap;

  /// Called by MergeCascade after every published structural step — the
  /// L0 freeze and each merge swap — with no tree locks held. The tree
  /// is fully consistent and snapshot-safe at each invocation: this is
  /// the seam checkpoint-during-compaction and the mid-cascade snapshot
  /// tests hang off. Leave unset in production ingest paths.
  std::function<void()> on_cascade_step;
};

/// A stream that survived a merge, with the number of merge inputs that
/// held its postings (the `copies` of MergeHooks::on_stream).
struct MergedStream {
  StreamId stream;
  std::uint32_t copies;
};

struct MergeStats {
  std::size_t merges = 0;
  std::size_t postings_in = 0;
  std::size_t postings_out = 0;
  std::size_t purged_postings = 0;
  std::size_t consolidated_postings = 0;  // Duplicates folded together.
  double total_micros = 0.0;

  MergeStats& operator+=(const MergeStats& other) {
    merges += other.merges;
    postings_in += other.postings_in;
    postings_out += other.postings_out;
    purged_postings += other.purged_postings;
    consolidated_postings += other.consolidated_postings;
    total_micros += other.total_micros;
    return *this;
  }
};

/// Combines `inputs` (one or more sealed components) into a new sealed
/// component at `out_level`, compressing it when `compress` is set. With
/// two inputs the pass structure — input 0's terms first, each folded
/// with the later inputs' postings for that term, then the terms only
/// later inputs hold — is identical to the historical two-way merge, so
/// a two-input call produces a bit-identical component.
/// `out_id`/`out_cell` give the output its component identity and
/// live-freshness ceiling cell (allocated by the owning LsmTree); the
/// output's ceiling additionally inherits every input's ceiling. Tests
/// may omit them — the output then has no ceiling cell and queries fall
/// back to the global freshness maximum. When `surviving` is non-null
/// and stream tracking is on, it receives every distinct surviving
/// stream with its copy count, so the caller can run the
/// post-publication `on_retired` pass.
/// `scratch` (optional) backs the merge's transient state — per-term
/// consolidation maps, ordering buffers, unsealed output vectors, stream
/// sets — so the allocation churn recycles through the arena's free
/// lists instead of hitting the global heap once per node. The output
/// component never references the scratch arena: `Seal()` migrates every
/// unsealed vector to an exact-size heap buffer, so the caller may drop
/// (or reuse) the arena as soon as this returns. Null = global heap.
std::shared_ptr<index::InvertedIndex> CombineComponents(
    const std::vector<const index::InvertedIndex*>& inputs, int out_level,
    bool compress, const MergeHooks& hooks, MergeStats* stats,
    ComponentId out_id = kInvalidComponentId,
    index::FreshnessCeilingPtr out_cell = nullptr,
    std::vector<MergedStream>* surviving = nullptr,
    WindowArena* scratch = nullptr);

/// Two-way convenience wrapper (the historical signature; `b` may be
/// null). Kept for tests and callers that merge exactly one pair.
std::shared_ptr<index::InvertedIndex> CombineComponents(
    const index::InvertedIndex& a, const index::InvertedIndex* b,
    int out_level, bool compress, const MergeHooks& hooks,
    MergeStats* stats, ComponentId out_id = kInvalidComponentId,
    index::FreshnessCeilingPtr out_cell = nullptr,
    std::vector<MergedStream>* surviving = nullptr,
    WindowArena* scratch = nullptr);

}  // namespace rtsi::lsm

#endif  // RTSI_LSM_MERGE_H_

// IndexShardSet: the horizontal scale-out seam (DESIGN.md §6i).
//
// Partitions streams across N independent RTSI shards by a mixed hash of
// the stream id. Every shard is a full single-node index — its own
// LsmTree (own delta / L0 freeze schedule / compaction policy), its own
// journal and snapshot files in durable mode — so a window seal or merge
// cascade on one shard never stalls ingest or queries on another, and a
// disk failure degrades exactly one partition.
//
// Queries scatter-gather: the set runs the query on every shard in turn,
// on the calling thread (each shard pins its own epoch-published
// IndexView wait-free), then merges the per-shard top-k with the
// deterministic total order of core::TopKHeap. Results are bit-identical
// to a single unsharded index holding the same streams:
//   * every stream lives in exactly one shard, so the global top-k is a
//     subset of the union of per-shard top-k lists;
//   * per-candidate scores are computed from the corpus-global statistics
//     in core::SharedScoringState (df for idf, max popularity for the
//     PopScore normalizer), which every shard updates and reads;
//   * the merge heap applies the same (score desc, stream asc) total
//     order as every other query path in the repo.
//
// Durable mode gives each shard its own directory:
//   <dir>/shard-<i>/index.snap      — shard snapshot (storage/snapshot.h)
//   <dir>/shard-<i>/index.journal   — shard journal  (storage/journal.h)
// Recovery opens each shard independently (snapshot + journal replay, the
// PR 3 crash-consistency contract per shard) and then rebuilds the shared
// scoring aggregate by summing the recovered per-shard tables.

#ifndef RTSI_SHARD_SHARD_SET_H_
#define RTSI_SHARD_SHARD_SET_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/rtsi_index.h"
#include "storage/journal.h"

namespace rtsi::shard {

struct ShardSetConfig {
  /// Per-shard index configuration. `lsm.delta` is per shard: N shards
  /// seal after delta postings EACH, so seals (and the cascades they
  /// trigger) happen independently per partition.
  core::RtsiConfig index;
  int num_shards = 1;
  /// Non-empty = durable mode: every shard journals to its own directory
  /// under this root (created if missing).
  std::string durable_dir;
  storage::JournalOptions journal;
  /// Per-shard compaction-policy overrides: entry i applies to shard i.
  /// Shards beyond the vector's length (and all shards when it is empty)
  /// keep `index.lsm.policy`. Lets a deployment run, say, leveled
  /// compaction on a hot shard and lazy-leveled everywhere else.
  std::vector<lsm::MergePolicy> shard_policies;
};

/// The shard a stream routes to: splitmix64 finalizer over the id, mod N.
/// Raw ids are often sequential; the mix spreads them uniformly so shard
/// load stays balanced (see DESIGN.md §6i).
int ShardForStream(StreamId stream, int num_shards);

class IndexShardSet : public core::SearchIndex {
 public:
  /// In-memory shard set (`config.durable_dir` ignored).
  explicit IndexShardSet(const ShardSetConfig& config);

  /// Adopts already-built indices as the shards (snapshot-restore path;
  /// the vector's size becomes the shard count). Binds the shared scoring
  /// state and rebuilds its aggregate from the adopted tables.
  IndexShardSet(const ShardSetConfig& config,
                std::vector<std::unique_ptr<core::RtsiIndex>> shards);

  /// Durable mode: opens (or recovers) every shard under
  /// `config.durable_dir`. `recovery`, when non-null, receives one entry
  /// per shard.
  static Result<std::unique_ptr<IndexShardSet>> Open(
      const ShardSetConfig& config,
      std::vector<storage::RecoveryStats>* recovery = nullptr);

  ~IndexShardSet() override;

  // SearchIndex: mutations route to the owning shard. On a sharded set
  // (num_shards > 1) InsertWindow silently drops a window for a retired
  // stream id (see CheckInsert); callers that need the error use
  // InsertWindowChecked.
  void InsertWindow(StreamId stream, Timestamp now,
                    const std::vector<core::TermCount>& terms,
                    bool live) override;

  /// Documented precondition of the sharded deployment: a stream id must
  /// never be reused after FinishStream/DeleteStream (the scatter-gather
  /// bit-identity argument assumes each stream's history lives and dies in
  /// one shard epoch). On a sharded set this returns FailedPrecondition —
  /// instead of undefined behavior — for such an id; a single-shard set
  /// accepts everything (the classic single-index semantics, where
  /// re-insertion after finish is the documented "stream resumes" path).
  Status InsertWindowChecked(StreamId stream, Timestamp now,
                             const std::vector<core::TermCount>& terms,
                             bool live);

  /// The precondition check of InsertWindowChecked alone: Ok when
  /// inserting `stream` is allowed right now. Callers coordinating
  /// several sets (e.g. the service's two modalities) validate all of
  /// them before applying to any. Advisory under concurrency: a racing
  /// FinishStream can retire the id between check and insert.
  Status CheckInsert(StreamId stream) const;

  void FinishStream(StreamId stream) override;
  void DeleteStream(StreamId stream) override;
  void UpdatePopularity(StreamId stream, std::uint64_t delta) override;

  /// Scatter-gather top-k across all shards; bit-identical to a
  /// single-shard index on the same data (see file comment).
  std::vector<core::ScoredStream> Query(const std::vector<TermId>& terms,
                                        int k, Timestamp now,
                                        core::QueryStats* stats) override;
  using core::SearchIndex::Query;

  /// Scatter-gather with a result filter (e.g. live-only search).
  std::vector<core::ScoredStream> QueryFiltered(
      const std::vector<TermId>& terms, int k, Timestamp now,
      const core::QueryFilter& filter, core::QueryStats* stats = nullptr);

  std::size_t MemoryBytes() const override;
  std::string name() const override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool durable() const { return !durables_.empty(); }

  /// The shard a stream routes to (tests, stats, per-shard tooling).
  int ShardOf(StreamId stream) const {
    return ShardForStream(stream, num_shards());
  }

  /// The underlying RTSI index of shard `s`.
  core::RtsiIndex& shard_index(int s);
  const core::RtsiIndex& shard_index(int s) const;

  /// The durable wrapper of shard `s`; null in in-memory mode.
  storage::DurableIndex* durable_shard(int s);

  /// Checkpoints every shard (durable mode). Returns the first error but
  /// attempts every shard regardless — one shard's full disk must not
  /// block the others' checkpoints.
  Status Checkpoint();
  Status CheckpointShard(int s);

  /// Blocks until no shard has a merge pending or running.
  void WaitForMerges();

  /// Per-shard compaction policy (the per-shard tuning seam).
  void SetMergePolicy(int s, lsm::MergePolicy policy);

  /// Rebuilds the shared scoring aggregate (df + max pop) from the
  /// shards' authoritative tables. Called automatically by the
  /// constructors and Open; call again after externally mutating a shard
  /// (e.g. restoring a snapshot into it). NOT safe concurrently with
  /// queries or inserts.
  void RefreshSharedScoring();

  const core::SharedScoringState& shared_scoring() const {
    return *shared_scoring_;
  }

  /// Point-in-time observability for /stats, rtsi_cli and benches.
  struct ShardStats {
    int shard = 0;
    std::uint64_t view_epoch = 0;
    std::vector<std::size_t> runs_per_level;
    std::size_t postings = 0;
    std::size_t streams = 0;
    std::size_t arena_bytes = 0;     // WindowArena in-use bytes
    std::size_t memory_bytes = 0;
    bool degraded = false;           // durable shard in fail-stop mode
  };
  ShardStats GetShardStats(int s) const;

 private:
  IndexShardSet() = default;  // Open() fills the members itself.

  /// Applies config_.shard_policies to the constructed shards.
  void ApplyShardPolicies();

  /// Records a finished/deleted id for the reuse guard (sharded sets
  /// only; a single shard keeps single-index semantics).
  void RecordRetired(StreamId stream);

  ShardSetConfig config_;
  // Exactly one of the two per slot: plain shards own the index, durable
  // shards own it through the journaling wrapper.
  std::vector<std::unique_ptr<core::RtsiIndex>> plain_;
  std::vector<std::unique_ptr<storage::DurableIndex>> durables_;
  // shards_[i] is the SearchIndex ops route through; raw_[i] the
  // underlying RtsiIndex (for stats and scoring state).
  std::vector<core::SearchIndex*> shards_;
  std::vector<core::RtsiIndex*> raw_;
  std::shared_ptr<core::SharedScoringState> shared_scoring_;
  // Stream ids retired by FinishStream/DeleteStream (populated only when
  // num_shards > 1): the insert-time reuse guard. Reader-heavy — every
  // checked insert takes the shared lock, retirements the exclusive one.
  mutable std::shared_mutex retired_mu_;
  std::unordered_set<StreamId> retired_;
};

}  // namespace rtsi::shard

#endif  // RTSI_SHARD_SHARD_SET_H_

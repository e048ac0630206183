// RTSI's small per-stream hash table (Section IV-B).
//
// Keyed by StreamId only — |P| entries, independent of the number of terms
// — holding the mutable score ingredients: the popularity counter and the
// freshness timestamp, plus liveness and lazy-deletion flags. Sharded
// mutexes allow concurrent updates with queries. Contrast with LSII's big
// table (baseline/big_table.h) which additionally stores every (stream,
// term) frequency.

#ifndef RTSI_INDEX_STREAM_INFO_TABLE_H_
#define RTSI_INDEX_STREAM_INFO_TABLE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "index/freshness_ceiling.h"

namespace rtsi::index {

struct StreamInfo {
  std::uint64_t pop_count = 0;  // Play counter / likes (raw popularity).
  Timestamp frsh = 0;           // Timestamp of the latest content window.
  std::uint32_t component_count = 0;  // LSM components holding postings.
  bool content_seen = false;    // At least one window was indexed
                                // (distinguishes real documents from
                                // metadata-only entries created by early
                                // popularity updates).
  bool live = false;            // Still broadcasting?
  bool finished = false;        // MarkFinished seen: liveness is monotone,
                                // a late out-of-order window must not
                                // resurrect the stream into the live set.
  bool deleted = false;         // Lazy deletion tombstone.
};

class StreamInfoTable {
 public:
  StreamInfoTable() = default;

  StreamInfoTable(const StreamInfoTable&) = delete;
  StreamInfoTable& operator=(const StreamInfoTable&) = delete;

  /// Called on every window insertion: creates or refreshes the entry.
  /// Returns true on the stream's first *content* window (popularity
  /// updates may have created the entry earlier without content). If
  /// `pop_count` is non-null, receives the current popularity counter
  /// (the insertion snapshot) without a second lookup.
  bool OnInsert(StreamId stream, Timestamp frsh, bool live,
                std::uint64_t* pop_count = nullptr);

  /// Increments the number of LSM components holding the stream's
  /// postings (first posting in a fresh L0 epoch).
  void IncrementComponentCount(StreamId stream);

  /// Records that sealed component `component` holds postings of `stream`
  /// and hands the stream a reference to the component's live-freshness
  /// ceiling cell, which every subsequent OnInsert bumps. The cell is
  /// immediately raised to the stream's current live freshness, so an
  /// insert that raced ahead of the registration is still covered.
  /// Idempotent per (stream, component); no-op for deleted streams
  /// (their residency was erased by MarkDeleted and re-adding it would
  /// leak). Does not touch component_count (the L0-epoch increment
  /// already accounted for this residency).
  void AddSealedResidency(StreamId stream, ComponentId component,
                          const FreshnessCeilingPtr& cell);

  /// Pre-publication merge bookkeeping: registers the merge output `to`
  /// (bumping its cell to the stream's live freshness) so inserts from
  /// here on bump it too. Nothing else changes yet: the inputs stay
  /// query-visible (in the published IndexView, and in any older views
  /// still pinned) until the output is swapped in, so their residencies
  /// must keep receiving ceiling bumps — or a query pinning such a view
  /// could prune with a ceiling below the stream's live freshness — and
  /// the component count must keep counting them. DropResidency does both
  /// updates after the swap. No-op for deleted streams (their residency
  /// was erased by MarkDeleted; re-adding it would leak, since later
  /// merges purge their postings without another hook call) and for
  /// unknown streams.
  void MergeResidency(StreamId stream, ComponentId to,
                      const FreshnessCeilingPtr& to_cell);

  /// Post-publication merge bookkeeping, under one shard lock: drops the
  /// stream's residency entries for the retired merge inputs `from`, now
  /// no longer query-visible (inputs the stream never resided in are
  /// skipped), and debits the component count by `copies - 1` — the
  /// merge consolidated `copies` of the stream's residencies into one.
  /// Returns the new count and whether the stream is still live
  /// (live-table eviction decision); {0, false} for unknown streams.
  std::pair<std::uint32_t, bool> DropResidency(
      StreamId stream, std::uint32_t copies,
      const std::vector<ComponentId>& from);

  /// Component ids the stream currently resides in (test introspection).
  std::vector<ComponentId> GetResidency(StreamId stream) const;

  /// Current component count (0 for unknown streams).
  std::uint32_t GetComponentCount(StreamId stream) const;

  bool IsLive(StreamId stream) const;

  /// Popularity update (e.g. play counter increment). Creates the entry if
  /// needed. Returns the new counter.
  std::uint64_t AddPopularity(StreamId stream, std::uint64_t delta);

  /// Marks the broadcast finished (stream stays queryable).
  void MarkFinished(StreamId stream);

  /// Lazy deletion: tombstones the stream; postings are purged at merges.
  void MarkDeleted(StreamId stream);

  /// Copies the entry into `info`. Returns false when the stream is
  /// unknown or deleted.
  bool Get(StreamId stream, StreamInfo& info) const;

  bool IsDeleted(StreamId stream) const;

  /// Largest popularity counter ever observed (safe upper bound even after
  /// in-place popularity updates that stale the sorted lists).
  std::uint64_t max_pop_count() const {
    return max_pop_count_.load(std::memory_order_relaxed);
  }

  /// Largest freshness timestamp ever entered. Candidates are scored with
  /// their *live* frsh, which can exceed every frsh stored in a sealed
  /// component (the stream stayed active after sealing). Per-component
  /// pruning uses the residency-bumped FreshnessCeiling cells instead
  /// (tight AND sound); this global maximum remains the sound fallback
  /// for components without a ceiling cell.
  Timestamp max_frsh() const {
    return max_frsh_.load(std::memory_order_relaxed);
  }

  /// Largest stream id ever entered (0 when empty). Queries size their
  /// dense dedup filters from it; monotone, so a stale read only costs a
  /// hash-set fallback for the newest ids.
  StreamId max_stream_id() const {
    return max_stream_id_.load(std::memory_order_relaxed);
  }

  std::size_t size() const;
  std::size_t MemoryBytes() const;

  /// Calls fn(StreamId, const StreamInfo&) for every entry (including
  /// tombstones), one shard lock at a time. Snapshot save path.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [stream, info] : shard.map) {
        fn(stream, info);
      }
    }
  }

  /// Installs a raw entry (snapshot restore path); refreshes the global
  /// popularity maximum.
  void RestoreEntry(StreamId stream, const StreamInfo& info);

 private:
  static constexpr std::size_t kNumShards = 64;

  /// One sealed component the stream has postings in, with a handle on
  /// that component's live-freshness ceiling cell.
  struct Residency {
    ComponentId component = kInvalidComponentId;
    FreshnessCeilingPtr ceiling;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<StreamId, StreamInfo> map;
    // Parallel to `map`, keyed by stream: the sealed components the stream
    // resides in. Kept out of StreamInfo so Get() stays a cheap POD copy
    // on the per-candidate scoring path.
    std::unordered_map<StreamId, std::vector<Residency>> residency;
  };

  Shard& ShardFor(StreamId stream) {
    return shards_[stream % kNumShards];
  }
  const Shard& ShardFor(StreamId stream) const {
    return shards_[stream % kNumShards];
  }

  void BumpMaxPop(std::uint64_t count) {
    std::uint64_t prev = max_pop_count_.load(std::memory_order_relaxed);
    while (count > prev && !max_pop_count_.compare_exchange_weak(
                               prev, count, std::memory_order_relaxed)) {
    }
  }

  void BumpMaxFrsh(Timestamp frsh) {
    Timestamp prev = max_frsh_.load(std::memory_order_relaxed);
    while (frsh > prev && !max_frsh_.compare_exchange_weak(
                              prev, frsh, std::memory_order_relaxed)) {
    }
  }

  void BumpMaxStream(StreamId stream) {
    StreamId prev = max_stream_id_.load(std::memory_order_relaxed);
    while (stream > prev && !max_stream_id_.compare_exchange_weak(
                                prev, stream, std::memory_order_relaxed)) {
    }
  }

  Shard shards_[kNumShards];
  std::atomic<std::uint64_t> max_pop_count_{0};
  std::atomic<Timestamp> max_frsh_{0};
  std::atomic<StreamId> max_stream_id_{0};
};

}  // namespace rtsi::index

#endif  // RTSI_INDEX_STREAM_INFO_TABLE_H_

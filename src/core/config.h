// Configuration of the RTSI index (Table III defaults).
//
// The paper's Table III is partially garbled in the available text; the
// defaults here are our documented choices (see DESIGN.md §4) and every
// bench sweeps the variables the paper varies.

#ifndef RTSI_CORE_CONFIG_H_
#define RTSI_CORE_CONFIG_H_

#include "lsm/lsm_tree.h"

namespace rtsi::core {

/// Weights of Equation 1: f(q,p) = wp*pop + wr*rel + wf*frsh.
struct ScoreWeights {
  double pop = 0.3;
  double rel = 0.5;
  double frsh = 0.2;
};

/// Compile shim for callers that still name the one pruning bound; the
/// index reads neither this enum nor RtsiConfig::bound_mode. Both go when
/// the end-to-end benchmark (e2ebench/) stops assigning the field.
enum class BoundMode { kGlobalPop };

struct RtsiConfig {
  /// LSM knobs: delta, rho, Huffman compression, and the compaction
  /// policy (lsm.policy / lsm.tier_runs). kGeometric is the paper's
  /// Algorithm 1 cascade; kTiered accumulates lsm.tier_runs runs per
  /// level before folding the tier one level down (lower write
  /// amplification, more runs on the read path — which the skip headers
  /// keep cheap); kFullCompaction is the everything-into-one ablation
  /// baseline. Snapshots (v5+) persist the policy; RtsiIndex::
  /// SetMergePolicy switches it at runtime.
  lsm::LsmTree::Config lsm;
  ScoreWeights weights;
  double freshness_tau_seconds = 6.0 * 3600.0;  // Exponential decay scale.
  /// Top-k early termination (Algorithm 3, Figure 17). The bound over a
  /// sealed component uses the global maximum popularity counter and the
  /// component's live-freshness ceiling in place of the popularity and
  /// freshness stored in its postings: a stream is scored with its *live*
  /// values, which a /pop update or any later window of the stream raise
  /// past the sealed snapshot. Both ceilings dominate every live value,
  /// so pruning never changes the result set (DESIGN.md §4).
  bool use_bound = true;
  BoundMode bound_mode = BoundMode::kGlobalPop;  // Unread; see BoundMode.

  /// Consult the sealed components' skip headers during query planning:
  /// the per-component term Bloom filter proves query terms absent
  /// (skipping the component without touching its posting maps), the
  /// per-term summaries replace the hash-map Bounds() lookups, and — with
  /// use_bound on — candidates are admission-screened against the current
  /// top-k threshold before full scoring. Screening drops a candidate
  /// only when a sound upper bound of its score (live popularity, live
  /// freshness, summary-bounded relevance) is strictly below the k-th
  /// score, so results are bit-identical with the flag on or off (see
  /// DESIGN.md §6f). Headers are always built; this only toggles
  /// consulting them (off = the header-less walk, kept for A/B benches).
  bool use_skip_header = true;

  /// Back the live ingest structures (unsealed L0 posting vectors, the
  /// live-term table's counter maps) with WindowArenas instead of the
  /// global heap: per-L0-shard arenas rotated at every freeze plus
  /// per-term-shard table arenas with free-list recycling. Query results
  /// are bit-identical on or off (the arena changes where bytes live,
  /// never what they say); off = the pre-arena allocation behavior, kept
  /// for A/B benches. Mirrored into lsm.use_arena at construction.
  bool use_arena = true;
  int default_k = 10;

  /// Run merge cascades on a background thread instead of the inserting
  /// thread. Removes the merge spikes from insertion latency (Figure 6);
  /// queries are unaffected either way — they run against the immutable
  /// IndexView they pinned at entry. Off by default to match the paper's
  /// measured setup.
  bool async_merge = false;
};

}  // namespace rtsi::core

#endif  // RTSI_CORE_CONFIG_H_

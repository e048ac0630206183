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

/// How the popularity part of the pruning bound is computed.
enum class BoundMode {
  /// Per-term popularity/freshness snapshots from the inverted lists (the
  /// paper's design). Not sound in general: a stream is scored with its
  /// live popularity and freshness, while a sealed posting keeps the
  /// values from its insertion. A popularity update, or simply a later
  /// window of the same stream (every multi-window broadcast raises its
  /// freshness), makes the snapshot under-estimate the component's bound,
  /// and early termination can then drop a true top-k stream that the
  /// full walk returns. Exact only for write-once streams. kGlobalPop is
  /// the sound mode; the full-walk oracles and the end-to-end benchmark
  /// use it. (Still the default: changing it changes the fig10
  /// checksums.)
  kSnapshot,
  /// Global ceilings — the maximum popularity counter and the maximum
  /// live freshness: looser but always sound, even under post-seal
  /// updates — pruning can then never change the result set.
  kGlobalPop,
};

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
  bool use_bound = true;             // Top-k early termination (Figure 17).
  BoundMode bound_mode = BoundMode::kSnapshot;

  /// Consult the sealed components' skip headers during query planning:
  /// the per-component term Bloom filter proves query terms absent
  /// (skipping the component without touching its posting maps), the
  /// per-term summaries replace the hash-map Bounds() lookups, and — with
  /// use_bound on — candidates are admission-screened against the current
  /// top-k threshold before full scoring. Screening drops a candidate
  /// only when a sound upper bound of its score (live popularity, live
  /// freshness, summary-bounded relevance) is strictly below the k-th
  /// score, so results are bit-identical with the flag on or off in every
  /// bound mode (see DESIGN.md §6f). Headers are always built; this only
  /// toggles consulting them (off = the PR 5 walk, kept for A/B benches).
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

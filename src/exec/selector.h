// ComponentSelector: the planning operator over a pinned component set.
//
// For each sealed component it resolves per-term bounds (through the skip
// header's Bloom filter + summaries when consulted, else the posting-map
// Bounds()), computes the sc-top upper bound of Algorithm 3, drops
// components proven term-free or bound-free, precomputes the admission
// screen's relevance ceilings, and returns the survivors sorted best
// bound first. Summary bounds are >= the posting-map bounds by
// construction, so switching lookups never tightens a bound — pruning
// stays lossless.

#ifndef RTSI_EXEC_SELECTOR_H_
#define RTSI_EXEC_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/explain.h"
#include "core/scorer.h"
#include "core/search_index.h"
#include "exec/query_plan.h"
#include "exec/traversal.h"
#include "index/inverted_index.h"

namespace rtsi::exec {

/// One component that survived selection, with everything the traversal
/// drivers need. Bound and ceiling are captured at selection time (same
/// capture-once semantics as max_pop).
struct SelectedComponent {
  const index::InvertedIndex* component = nullptr;
  double bound = 0.0;
  Timestamp frsh_ceiling = 0;  // Live-freshness ceiling for Threshold().
  double rel_total = 0.0;   // Screen: bound on this component's rel part.
  std::size_t order = 0;    // Snapshot position: deterministic sort
                            // tie-break and the component's screen row.
  std::size_t explain_slot = 0;
  bool screen = false;      // Header summaries available for screening.
};

/// Per-path selection knobs (the RTSI planner and the LSII baseline make
/// different soundness assumptions; see each field).
struct SelectorOptions {
  /// Resolve term bounds through the skip headers (Bloom + summaries) and
  /// precompute admission-screen ingredients. Off = posting-map Bounds().
  bool consult_headers = false;
  /// Use the component's residency-bumped FreshnessCeiling cell when it
  /// has one. The LSII baseline turns this off: its components carry no
  /// residency bookkeeping, so only the fallback is sound for it.
  bool use_component_ceiling = true;
  /// Ceiling when the component has no cell (or cells are not used).
  /// RTSI passes the stream table's max_frsh() via `fallback_ceiling`;
  /// LSII passes `now` (its workload clock is monotone).
  Timestamp fallback_ceiling = 0;
  /// Drop components whose bound is not strictly positive (RTSI). The
  /// LSII baseline keeps them and only drops proven term-free components,
  /// preserving its historical walk order.
  bool require_positive_bound = true;
  /// Break bound ties by snapshot position (deterministic total order, so
  /// QueryStats are a pure function of the index and the query). LSII
  /// keeps its original unstable bound-only sort.
  bool order_tie_break = true;
  /// Per-query-term tf headroom for multi-component streams, parallel to
  /// the plan's terms; null = 0 per term (the consolidation invariant).
  /// LSII passes its global per-term max totals.
  const std::vector<TermFreq>* tf_corrections = nullptr;
};

/// Reused buffers for selection (views into QueryScratch or locals).
struct SelectorScratch {
  std::vector<PerTermBound>& per_term;
  std::vector<double>& screen_own;
  /// Out: component-major, stride num_terms; entry [c*nq+i] bounds the
  /// tf-idf mass the terms *other than* i can contribute inside the
  /// snapshot's component c (indexed by SelectedComponent::order).
  std::vector<double>& screen_tfidf;
};

/// Plans over `components` (a pinned view's snapshot): per-component
/// bounds, Bloom/bound skips (counted into `qs`), screen ingredients, and
/// the bound-descending sort. When `explain` is non-null every component
/// gets a ComponentExplanation slot, pushed before any skip decision.
std::vector<SelectedComponent> SelectComponents(
    const QueryPlan& plan, const core::Scorer& scorer,
    const std::vector<std::shared_ptr<const index::InvertedIndex>>&
        components,
    const SelectorOptions& options, SelectorScratch scratch,
    core::QueryStats& qs, core::QueryExplanation* explain);

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_SELECTOR_H_

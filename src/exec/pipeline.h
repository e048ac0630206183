// Pipeline drivers: the traversal loops of Algorithm 3, templated over a
// candidate policy so the per-posting inner loop stays monomorphic (no
// virtual or std::function dispatch per posting — only per-candidate sink
// calls are virtual).
//
// A policy provides:
//   std::vector<index::Posting>& round();          // this thread's buffers
//   std::vector<std::uint32_t>& round_terms();
//   void BeginComponent(const SelectedComponent&);
//   bool Admit(StreamId);                          // dedup / already-exact
//   void Candidate(const Traversal&, StreamId, std::size_t term_index,
//                  core::QueryStats&);
//
// RunSealedSequential drives the sealed walk (fast, explain, and LSII
// policies); RunLiveTablePhase / RunL0Phase are the exact-total phases
// that precede it. Every query runs all three on the thread that issued
// it (DESIGN.md §6b).

#ifndef RTSI_EXEC_PIPELINE_H_
#define RTSI_EXEC_PIPELINE_H_

#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/explain.h"
#include "core/query_scratch.h"
#include "core/scorer.h"
#include "core/search_index.h"
#include "exec/query_plan.h"
#include "exec/selector.h"
#include "exec/sink.h"
#include "exec/traversal.h"
#include "index/live_term_table.h"
#include "lsm/lsm_tree.h"

namespace rtsi::exec {

/// Pruning comparison: RTSI drops strictly below the threshold (a dropped
/// candidate can never re-enter via the stream-id tie-break); the LSII
/// baseline also drops ties. -infinity thresholds (sink not yet full)
/// never prune under either rule.
inline bool Prunes(double threshold, double bound, bool if_equal) {
  return if_equal ? threshold >= bound : threshold > bound;
}

/// Phase 1: score every live-table stream touching a query term (the
/// table is term-keyed, so only matching streams are visited). Their
/// totals are exact regardless of how many components hold their
/// postings; afterwards, any unscored candidate is single-component.
///
/// A merge evicts a consolidated stream concurrently with this phase, so
/// a stream's totals are read optimistically and kept only if the stream
/// is still registered afterwards (RemoveStream unregisters before it
/// erases any counter). An evicted stream is left to the sealed walk:
/// evictions happen only after the merge's view swap (DESIGN.md §6e), so
/// the view this query pins next holds the stream in one component.
template <typename ExactPolicy>
void RunLiveTablePhase(const QueryPlan& plan, const core::Scorer& scorer,
                       const index::LiveTermTable& live_terms,
                       core::QueryScratch& scratch,
                       std::unordered_set<StreamId>& scored,
                       ExactPolicy& exact) {
  std::vector<StreamId>& table_matches = scratch.table_matches;
  for (const TermId term : plan.terms) {
    live_terms.ForEachStreamOfTerm(term, [&](StreamId stream, TermFreq) {
      table_matches.push_back(stream);
    });
  }
  const std::size_t nq = plan.num_terms();
  std::vector<TermFreq>& tfs = scratch.tfs;
  for (const StreamId stream : table_matches) {
    if (!scored.insert(stream).second) continue;
    double tfidf_sum = 0.0;
    tfs.assign(nq, 0);
    for (std::size_t i = 0; i < nq; ++i) {
      tfs[i] = live_terms.GetTotal(stream, plan.terms[i]);
      tfidf_sum += scorer.TermTfIdf(tfs[i], plan.idfs[i]);
    }
    if (!live_terms.ContainsStream(stream)) {
      scored.erase(stream);
      continue;
    }
    exact.Candidate(stream, tfidf_sum, tfs.data(),
                    core::ScoreBreakdown::Source::kLiveTable);
  }
}

/// Phase 2: full scan of I0 (it is small by construction). Accumulates
/// per-stream tf sums into a slot-indexed flat matrix (stride nq), exact
/// for streams whose postings are L0-only. Returns the number of
/// candidates scored here (explain's l0_candidates).
template <typename ExactPolicy>
std::size_t RunL0Phase(const QueryPlan& plan, const core::Scorer& scorer,
                       lsm::LsmTree& tree, core::QueryScratch& scratch,
                       std::unordered_set<StreamId>& scored,
                       ExactPolicy& exact, core::QueryStats& qs) {
  const std::size_t nq = plan.num_terms();
  auto& l0_slot = scratch.l0_slot;
  auto& l0_tf = scratch.l0_tf;
  auto& l0_streams = scratch.l0_streams;
  for (std::size_t i = 0; i < nq; ++i) {
    tree.WithL0Term(plan.terms[i], [&](const index::TermPostings* postings) {
      if (postings == nullptr) return;
      qs.postings_scanned += postings->size();
      for (const index::Posting& p : postings->entries()) {
        auto [it, inserted] = l0_slot.try_emplace(
            p.stream, static_cast<std::uint32_t>(l0_streams.size()));
        if (inserted) {
          l0_streams.push_back(p.stream);
          l0_tf.resize(l0_tf.size() + nq, 0);
        }
        l0_tf[static_cast<std::size_t>(it->second) * nq + i] += p.tf;
      }
    });
  }
  std::size_t l0_candidates = 0;
  for (std::size_t slot = 0; slot < l0_streams.size(); ++slot) {
    const StreamId stream = l0_streams[slot];
    if (!scored.insert(stream).second) continue;
    const TermFreq* stream_tfs = l0_tf.data() + slot * nq;
    double tfidf_sum = 0.0;
    for (std::size_t i = 0; i < nq; ++i) {
      tfidf_sum += scorer.TermTfIdf(stream_tfs[i], plan.idfs[i]);
    }
    ++l0_candidates;
    exact.Candidate(stream, tfidf_sum, stream_tfs,
                    core::ScoreBreakdown::Source::kL0Scan);
  }
  return l0_candidates;
}

/// Phase 3, single-threaded: walk the selected components best bound
/// first (Algorithm 3's sc-top pruning, strengthened by processing in
/// bound order), cut each traversal when the per-round threshold falls
/// below the sink's k-th score.
template <typename Policy>
void RunSealedSequential(const QueryPlan& plan, const core::Scorer& scorer,
                         const std::vector<SelectedComponent>& comps,
                         Policy& policy, ResultSink& sink,
                         core::QueryStats& qs,
                         core::QueryExplanation* explain) {
  std::vector<index::Posting>& round = policy.round();
  std::vector<std::uint32_t>& round_terms = policy.round_terms();
  for (std::size_t c = 0; c < comps.size(); ++c) {
    if (plan.use_bound &&
        Prunes(sink.Threshold(), comps[c].bound, plan.prune_if_equal)) {
      qs.components_pruned += comps.size() - c;
      qs.terminated_early = true;
      break;
    }
    ++qs.components_visited;
    if (explain != nullptr) {
      explain->components[comps[c].explain_slot].visited = true;
    }
    Traversal traversal(*comps[c].component, plan.terms);
    policy.BeginComponent(comps[c]);
    while (traversal.NextRound(round, round_terms)) {
      for (std::size_t ri = 0; ri < round.size(); ++ri) {
        const index::Posting& p = round[ri];
        if (!policy.Admit(p.stream)) continue;
        policy.Candidate(traversal, p.stream, round_terms[ri], qs);
      }
      qs.postings_scanned += round.size();
      round.clear();
      round_terms.clear();
      if (plan.use_bound) {
        const double threshold = sink.Threshold();
        // A -infinity threshold (sink not yet full) can never cut; skip
        // the Threshold() computation entirely.
        if (std::isfinite(threshold)) {
          const double tau =
              traversal.Threshold(scorer, plan.idfs, comps[c].pop_score,
                                  comps[c].frsh_score);
          if (Prunes(threshold, tau, plan.prune_if_equal)) {
            qs.terminated_early = true;
            if (explain != nullptr) {
              explain->components[comps[c].explain_slot].terminated_early =
                  true;
            }
            break;
          }
        }
      }
    }
    if (explain != nullptr) {
      explain->components[comps[c].explain_slot].postings_yielded =
          traversal.postings_yielded();
    }
  }
}

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_PIPELINE_H_

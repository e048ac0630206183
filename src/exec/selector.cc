#include "exec/selector.h"

#include <algorithm>

#include "index/skip_header.h"

namespace rtsi::exec {

std::vector<SelectedComponent> SelectComponents(
    const QueryPlan& plan, const core::Scorer& scorer,
    const std::vector<std::shared_ptr<const index::InvertedIndex>>&
        components,
    const SelectorOptions& options, SelectorScratch scratch,
    core::QueryStats& qs, core::QueryExplanation* explain) {
  const std::vector<TermId>& q = plan.terms;
  const std::vector<double>& idfs = plan.idfs;
  const std::size_t nq = q.size();
  const int num_terms = static_cast<int>(nq);

  std::vector<double>& screen_tfidf = scratch.screen_tfidf;
  screen_tfidf.assign(components.size() * nq, 0.0);
  std::vector<double>& screen_own = scratch.screen_own;
  std::vector<PerTermBound>& per_term = scratch.per_term;

  const double pop_score = scorer.PopScore(plan.max_pop, plan.max_pop);
  std::vector<SelectedComponent> selected;
  selected.reserve(components.size());
  for (std::size_t ci = 0; ci < components.size(); ++ci) {
    const auto& component = components[ci];
    const index::SkipHeader* header =
        options.consult_headers ? component->skip_header() : nullptr;
    per_term.assign(nq, PerTermBound{});
    bool any_present = false;
    if (header != nullptr) {
      for (std::size_t i = 0; i < nq; ++i) {
        per_term[i].idf = idfs[i];
        per_term[i].tf_correction = 0;  // Consolidation invariant.
        if (!header->MayContain(q[i])) continue;
        const index::TermSummary* s = header->Find(q[i]);
        if (s == nullptr) {
          ++qs.bloom_false_positives;  // Cost: one binary search. Sound.
          continue;
        }
        per_term[i].bounds = index::TermBounds{s->max_tf, true};
        any_present = true;
      }
    } else {
      for (std::size_t i = 0; i < nq; ++i) {
        per_term[i].bounds = component->Bounds(q[i]);
        per_term[i].idf = idfs[i];
        per_term[i].tf_correction =
            options.tf_corrections != nullptr ? (*options.tf_corrections)[i]
                                              : 0;
        any_present = any_present || per_term[i].bounds.present;
      }
    }
    // Per-component ceiling: only streams resident here can have raised
    // it, so it is far tighter than the table-global fallback — which
    // stays the sound choice for components without a cell (restored
    // from old snapshots, or built by tests via bare CombineComponents).
    const Timestamp frsh_ceiling =
        options.use_component_ceiling && component->has_ceiling()
            ? component->LiveFrshCeiling()
            : options.fallback_ceiling;
    const double frsh_score = scorer.FrshScore(frsh_ceiling, plan.now);
    const double bound =
        ComponentBound(scorer, per_term, pop_score, frsh_score);
    std::size_t slot = 0;
    if (explain != nullptr) {
      core::ComponentExplanation ce;
      ce.level = component->level();
      ce.num_postings = component->num_postings();
      ce.upper_bound = bound;
      ce.skipped = header != nullptr && !any_present;
      slot = explain->components.size();
      explain->components.push_back(ce);
    }
    if (header != nullptr && !any_present) {
      // The Bloom filter *proved* every query term absent (a summary miss
      // after a positive filter is counted above, not here): the
      // component is skipped without touching its posting maps.
      ++qs.components_skipped;
      continue;
    }
    if (options.require_positive_bound) {
      if (!(bound > 0.0)) continue;
    } else if (!any_present) {
      continue;  // LSII: only proven term-free components are dropped.
    }
    double rel_total = 0.0;
    if (header != nullptr) {
      // Admission-screen ingredients. own[i] bounds term i's tf-idf
      // contribution inside this component; the row of screen_tfidf
      // holds, per term, the mass the *other* terms can add (direct
      // ascending-order sums, matching the scoring loop's accumulation
      // order so the bound dominates the actual sum even under floating-
      // point rounding — a tiny slack at the compare covers the rest).
      screen_own.assign(nq, 0.0);
      for (std::size_t i = 0; i < nq; ++i) {
        if (per_term[i].bounds.present) {
          screen_own[i] =
              scorer.TermTfIdf(per_term[i].bounds.max_tf, idfs[i]);
        }
      }
      double sum_own = 0.0;
      for (std::size_t i = 0; i < nq; ++i) sum_own += screen_own[i];
      double* other = screen_tfidf.data() + ci * nq;
      for (std::size_t i = 0; i < nq; ++i) {
        double o = 0.0;
        for (std::size_t j = 0; j < nq; ++j) {
          if (j != i) o += screen_own[j];
        }
        other[i] = o;
      }
      rel_total = scorer.RelScore(sum_own, num_terms);
    }
    selected.push_back({component.get(), bound, pop_score, frsh_score,
                        rel_total, ci, slot, header != nullptr});
  }
  if (options.order_tie_break) {
    std::sort(selected.begin(), selected.end(),
              [](const SelectedComponent& a, const SelectedComponent& b) {
                if (a.bound != b.bound) return a.bound > b.bound;
                return a.order < b.order;
              });
  } else {
    std::sort(selected.begin(), selected.end(),
              [](const SelectedComponent& a, const SelectedComponent& b) {
                return a.bound > b.bound;
              });
  }
  return selected;
}

}  // namespace rtsi::exec

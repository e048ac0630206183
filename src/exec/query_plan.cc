#include "exec/query_plan.h"

#include <algorithm>

namespace rtsi::exec {

void BuildQueryPlan(const std::vector<TermId>& terms,
                    const core::DocumentFrequencyTable& df, int k,
                    Timestamp now, const core::QueryFilter& filter,
                    std::uint64_t max_pop, bool use_bound,
                    bool prune_if_equal,
                    std::vector<TermId>& term_set, QueryPlan& plan) {
  std::vector<TermId>& q = plan.terms;
  q.clear();
  term_set.clear();
  q.reserve(terms.size());
  term_set.reserve(terms.size());
  for (const TermId term : terms) {
    const auto it = std::lower_bound(term_set.begin(), term_set.end(), term);
    if (it != term_set.end() && *it == term) continue;
    term_set.insert(it, term);
    q.push_back(term);
  }
  plan.idfs.assign(q.size(), 0.0);
  for (std::size_t i = 0; i < q.size(); ++i) plan.idfs[i] = df.Idf(q[i]);
  plan.filter = filter;
  plan.k = k;
  plan.now = now;
  plan.max_pop = max_pop;
  plan.use_bound = use_bound;
  plan.prune_if_equal = prune_if_equal;
}

}  // namespace rtsi::exec

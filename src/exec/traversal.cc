#include "exec/traversal.h"

#include <algorithm>

namespace rtsi::exec {

using core::Scorer;
using index::Posting;
using index::SortKey;

double ComponentBound(const Scorer& scorer,
                      const std::vector<PerTermBound>& terms,
                      double pop_score, double frsh_score) {
  bool any_present = false;
  double tfidf_sum = 0.0;
  for (const PerTermBound& term : terms) {
    if (!term.bounds.present) continue;
    any_present = true;
    const TermFreq tf_bound =
        std::max(term.bounds.max_tf, term.tf_correction);
    tfidf_sum += scorer.TermTfIdf(tf_bound, term.idf);
  }
  if (!any_present) return 0.0;
  const double rel_score =
      scorer.RelScore(tfidf_sum, static_cast<int>(terms.size()));
  return scorer.Combine(pop_score, rel_score, frsh_score);
}

Traversal::Traversal(const index::InvertedIndex& component,
                     const std::vector<TermId>& terms) {
  cursors_.reserve(terms.size());
  for (const TermId term : terms) {
    TermCursor cursor;
    cursor.view = component.View(term);
    cursor.exhausted = !cursor.view || cursor.view->empty();
    cursors_.push_back(std::move(cursor));
  }
}

bool Traversal::NextRound(std::vector<Posting>& out) {
  return NextRoundImpl(out, nullptr);
}

bool Traversal::NextRound(std::vector<Posting>& out,
                          std::vector<std::uint32_t>& term_of) {
  return NextRoundImpl(out, &term_of);
}

bool Traversal::NextRoundImpl(std::vector<Posting>& out,
                              std::vector<std::uint32_t>* term_of) {
  bool yielded = false;
  for (std::size_t ti = 0; ti < cursors_.size(); ++ti) {
    TermCursor& cursor = cursors_[ti];
    if (cursor.exhausted) continue;
    const std::size_t n = cursor.view->size();
    for (int key = 0; key < index::kNumSortKeys; ++key) {
      std::size_t& pos = cursor.pos[key];
      if (pos < n) {
        out.push_back(cursor.view->At(static_cast<SortKey>(key), pos));
        if (term_of != nullptr) {
          term_of->push_back(static_cast<std::uint32_t>(ti));
        }
        ++pos;
        ++postings_yielded_;
        yielded = true;
      }
    }
    // A term is exhausted once any of its lists has been fully consumed:
    // every posting appears in all three lists, so a drained list implies
    // every posting of the term has been yielded at least once.
    for (int key = 0; key < index::kNumSortKeys; ++key) {
      if (cursor.pos[key] >= n) {
        cursor.exhausted = true;
        break;
      }
    }
  }
  return yielded;
}

double Traversal::Threshold(const Scorer& scorer,
                            const std::vector<double>& idfs,
                            double pop_score, double frsh_score) const {
  bool any_active = false;
  double tfidf_sum = 0.0;
  for (std::size_t i = 0; i < cursors_.size(); ++i) {
    const TermCursor& cursor = cursors_[i];
    if (cursor.exhausted) continue;
    any_active = true;
    const Posting& tf_head =
        cursor.view->At(SortKey::kTermFrequency, cursor.pos[2]);
    tfidf_sum += scorer.TermTfIdf(tf_head.tf, idfs[i]);
  }
  if (!any_active) return 0.0;
  const double rel_score =
      scorer.RelScore(tfidf_sum, static_cast<int>(cursors_.size()));
  return scorer.Combine(pop_score, rel_score, frsh_score);
}

bool Traversal::Find(std::size_t term_index, StreamId stream,
                     Posting& out) const {
  const TermCursor& cursor = cursors_[term_index];
  if (!cursor.view || cursor.view->empty()) return false;
  return cursor.view->AggregateForStream(stream, out);
}

}  // namespace rtsi::exec

// Accumulator: per-candidate score assembly for the pipeline.
//
// ComputeScore() is the pure Equation-1 fold (pop/rel/frsh from the
// stream table + a ready tf-idf sum); SealedScorer is the fast-path
// candidate policy for sealed components — admission screen, then the
// discovering-term-first ("ti-first") tf-idf accumulation that keeps
// fast and explain totals bit-identical.
//
// Everything here is header-only so the per-posting work stays
// monomorphic; only the per-candidate sink calls are virtual.

#ifndef RTSI_EXEC_ACCUMULATOR_H_
#define RTSI_EXEC_ACCUMULATOR_H_

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
#include "index/stream_info_table.h"

namespace rtsi::exec {

/// Slack absorbing the different floating-point summation order of the
/// admission screen's relevance bound vs the exact relevance (see
/// DESIGN.md §6f).
inline constexpr double kScreenSlack = 1e-9;

/// Decomposed Equation-1 score of one candidate.
struct PartScores {
  double pop = 0.0, rel = 0.0, frsh = 0.0, total = 0.0;
};

/// Pure Equation-1 scoring from the tf-idf sum; false when the stream is
/// deleted/unknown or rejected by the plan's filter. Safe to call from
/// any worker (sharded-mutex table reads, const scorer).
inline bool ComputeScore(const QueryPlan& plan, const core::Scorer& scorer,
                         const index::StreamInfoTable& streams,
                         StreamId stream, double tfidf_sum,
                         PartScores& out) {
  index::StreamInfo info;
  if (!streams.Get(stream, info)) return false;  // Deleted or unknown.
  if (plan.filter.live_only && !info.live) return false;
  if (info.frsh < plan.filter.min_frsh) return false;
  out.pop = scorer.PopScore(info.pop_count, plan.max_pop);
  out.rel = scorer.RelScore(tfidf_sum, static_cast<int>(plan.num_terms()));
  out.frsh = scorer.FrshScore(info.frsh, plan.now);
  out.total = scorer.Combine(out.pop, out.rel, out.frsh);
  return true;
}

/// Candidate admission for sealed traversal: the per-component epoch
/// dedup plus the phase-1/2 exact-total set (read-only during phase 3 —
/// it marks streams whose totals are already exact).
class CandidateGate {
 public:
  CandidateGate(core::QueryScratch& scratch, StreamId max_stream,
                const std::unordered_set<StreamId>& scored)
      : seen_(scratch, max_stream), scored_(&scored) {}

  void NextComponent() { seen_.NextComponent(); }

  /// True the first time `stream` is admitted within the current
  /// component and it was not already scored exactly in phase 1/2.
  bool Admit(StreamId stream) {
    if (!seen_.Insert(stream)) return false;
    return scored_->count(stream) == 0;
  }

 private:
  core::StreamSeenFilter seen_;
  const std::unordered_set<StreamId>* scored_;
};

/// Fast-path sealed-component candidate policy (no explain): filter,
/// admission screen against the sink's threshold, ti-first accumulation,
/// offer. One instance per executing thread; the screen ingredients are
/// shared read-only.
class SealedScorer {
 public:
  SealedScorer(const QueryPlan& plan, const core::Scorer& scorer,
               const index::StreamInfoTable& streams,
               const std::unordered_set<StreamId>& scored,
               const std::vector<double>& screen_tfidf, bool screen_base,
               core::QueryScratch& scratch, StreamId max_stream,
               ResultSink& sink)
      : plan_(&plan),
        scorer_(&scorer),
        streams_(&streams),
        screen_tfidf_(&screen_tfidf),
        screen_base_(screen_base),
        scratch_(&scratch),
        gate_(scratch, max_stream, scored),
        sink_(&sink),
        nq_(plan.num_terms()),
        num_terms_(static_cast<int>(plan.num_terms())) {}

  std::vector<index::Posting>& round() { return scratch_->round; }
  std::vector<std::uint32_t>& round_terms() { return scratch_->round_terms; }

  void BeginComponent(const SelectedComponent& sc) {
    gate_.NextComponent();
    screen_ = screen_base_ && sc.screen;
    rel_total_ = sc.rel_total;
    other_tfidf_ = screen_tfidf_->data() + sc.order * nq_;
  }

  bool Admit(StreamId stream) { return gate_.Admit(stream); }

  void Candidate(const Traversal& traversal, StreamId stream,
                 std::size_t ti, core::QueryStats& qs) {
    index::StreamInfo info;
    if (!streams_->Get(stream, info)) return;  // Deleted.
    if (plan_->filter.live_only && !info.live) return;
    if (info.frsh < plan_->filter.min_frsh) return;
    const double pop_score = scorer_->PopScore(info.pop_count, plan_->max_pop);
    const double frsh_score = scorer_->FrshScore(info.frsh, plan_->now);
    // The screen prunes against the sink's threshold, which only ever
    // rises; a screened candidate is strictly below a lower bound of the
    // final k-th score, so neither traversal order nor worker timing can
    // change the result set (same argument as the bound pruning).
    if (screen_ &&
        sink_->Threshold() >
            scorer_->Combine(pop_score, rel_total_, frsh_score) +
                kScreenSlack) {
      ++qs.candidates_screened;  // No term lookup was paid.
      return;
    }
    // The discovering term's aggregate first (one lookup the old path
    // repeated), then a tighter screen with its actual tf before paying
    // for the remaining terms.
    index::Posting agg;
    if (!traversal.Find(ti, stream, agg)) return;
    double tfidf_sum = scorer_->TermTfIdf(agg.tf, plan_->idfs[ti]);
    if (screen_ && nq_ > 1 &&
        sink_->Threshold() >
            scorer_->Combine(
                pop_score,
                scorer_->RelScore(tfidf_sum + other_tfidf_[ti], num_terms_),
                frsh_score) +
                kScreenSlack) {
      ++qs.candidates_screened;
      return;
    }
    for (std::size_t i = 0; i < nq_; ++i) {
      if (i == ti) continue;
      index::Posting found;
      if (traversal.Find(i, stream, found)) {
        tfidf_sum += scorer_->TermTfIdf(found.tf, plan_->idfs[i]);
      }
    }
    const double rel_score = scorer_->RelScore(tfidf_sum, num_terms_);
    sink_->Offer(stream,
                 scorer_->Combine(pop_score, rel_score, frsh_score));
    ++qs.candidates_scored;
  }

 private:
  const QueryPlan* plan_;
  const core::Scorer* scorer_;
  const index::StreamInfoTable* streams_;
  const std::vector<double>* screen_tfidf_;
  bool screen_base_;
  core::QueryScratch* scratch_;
  CandidateGate gate_;
  ResultSink* sink_;
  std::size_t nq_;
  int num_terms_;
  // Per-component state (BeginComponent).
  bool screen_ = false;
  double rel_total_ = 0.0;
  const double* other_tfidf_ = nullptr;
};

/// Exact-phase candidate policy (live table + L0): score from the already
/// exact tf-idf sum and offer. The explain path substitutes its own
/// policy to additionally record breakdowns.
class ExactScorer {
 public:
  ExactScorer(const QueryPlan& plan, const core::Scorer& scorer,
              const index::StreamInfoTable& streams, ResultSink& sink,
              core::QueryStats& qs)
      : plan_(&plan),
        scorer_(&scorer),
        streams_(&streams),
        sink_(&sink),
        qs_(&qs) {}

  void Candidate(StreamId stream, double tfidf_sum, const TermFreq*,
                 core::ScoreBreakdown::Source) {
    PartScores parts;
    if (!ComputeScore(*plan_, *scorer_, *streams_, stream, tfidf_sum,
                      parts)) {
      return;
    }
    sink_->Offer(stream, parts.total);
    ++qs_->candidates_scored;
  }

 private:
  const QueryPlan* plan_;
  const core::Scorer* scorer_;
  const index::StreamInfoTable* streams_;
  ResultSink* sink_;
  core::QueryStats* qs_;
};

}  // namespace rtsi::exec

#endif  // RTSI_EXEC_ACCUMULATOR_H_

#include "core/rtsi_index.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/top_k.h"
#include "exec/accumulator.h"
#include "exec/pipeline.h"
#include "exec/selector.h"

namespace rtsi::core {

using index::Posting;
using index::TermPostings;

namespace {

// The single arena switch lives on RtsiConfig; mirror it into the LSM
// config before the tree is constructed from it.
RtsiConfig Normalized(RtsiConfig config) {
  config.lsm.use_arena = config.use_arena;
  return config;
}

// Exact-phase candidate policy for explanations: scores exactly like
// exec::ExactScorer and additionally records per-candidate breakdowns
// (keep-best-per-stream under the heap's total order, so the retained
// breakdown is the one whose score the result carries).
class ExplainRecorder {
 public:
  ExplainRecorder(const exec::QueryPlan& plan, const Scorer& scorer,
                  const index::StreamInfoTable& streams,
                  exec::ResultSink& sink, QueryStats& qs,
                  std::unordered_map<StreamId, ScoreBreakdown>& breakdowns)
      : plan_(plan),
        scorer_(scorer),
        streams_(streams),
        sink_(sink),
        qs_(qs),
        breakdowns_(breakdowns) {}

  void Candidate(StreamId stream, double tfidf_sum, const TermFreq* tfs,
                 ScoreBreakdown::Source source) {
    exec::PartScores parts;
    if (!exec::ComputeScore(plan_, scorer_, streams_, stream, tfidf_sum,
                            parts)) {
      return;
    }
    sink_.Offer(stream, parts.total);
    ++qs_.candidates_scored;
    // A stream scored in several components keeps the breakdown of its
    // better-ranked (retained) scoring.
    const auto it = breakdowns_.find(stream);
    if (it != breakdowns_.end() &&
        !TopKHeap::RanksAbove({stream, parts.total},
                              {stream, it->second.total})) {
      return;
    }
    ScoreBreakdown breakdown;
    breakdown.stream = stream;
    breakdown.pop_score = parts.pop;
    breakdown.rel_score = parts.rel;
    breakdown.frsh_score = parts.frsh;
    breakdown.total = parts.total;
    breakdown.source = source;
    if (tfs != nullptr) {
      breakdown.term_tfs.assign(tfs, tfs + plan_.num_terms());
    }
    breakdowns_[stream] = std::move(breakdown);
  }

 private:
  const exec::QueryPlan& plan_;
  const Scorer& scorer_;
  const index::StreamInfoTable& streams_;
  exec::ResultSink& sink_;
  QueryStats& qs_;
  std::unordered_map<StreamId, ScoreBreakdown>& breakdowns_;
};

// Sealed-component candidate policy for explanations: full scoring with
// per-term tf capture, same discovering-term-first accumulation order as
// the fast path so explained totals match Query() bit-for-bit. No
// admission screen (the explanation reports every scored candidate).
class ExplainSealedPolicy {
 public:
  ExplainSealedPolicy(const exec::QueryPlan& plan, const Scorer& scorer,
                      QueryScratch& scratch, StreamId max_stream,
                      const std::unordered_set<StreamId>& scored,
                      ExplainRecorder& recorder)
      : plan_(plan),
        scorer_(scorer),
        scratch_(scratch),
        gate_(scratch, max_stream, scored),
        recorder_(recorder) {}

  std::vector<Posting>& round() { return scratch_.round; }
  std::vector<std::uint32_t>& round_terms() { return scratch_.round_terms; }

  void BeginComponent(const exec::SelectedComponent&) {
    gate_.NextComponent();
  }

  bool Admit(StreamId stream) { return gate_.Admit(stream); }

  void Candidate(const exec::Traversal& traversal, StreamId stream,
                 std::size_t ti, QueryStats&) {
    const std::size_t nq = plan_.num_terms();
    std::vector<TermFreq>& tfs = scratch_.tfs;
    tfs.assign(nq, 0);
    double tfidf_sum = 0.0;
    Posting agg;
    if (traversal.Find(ti, stream, agg)) {
      tfs[ti] = agg.tf;
      tfidf_sum = scorer_.TermTfIdf(agg.tf, plan_.idfs[ti]);
    }
    for (std::size_t i = 0; i < nq; ++i) {
      if (i == ti) continue;
      Posting found;
      if (traversal.Find(i, stream, found)) {
        tfs[i] = found.tf;
        tfidf_sum += scorer_.TermTfIdf(found.tf, plan_.idfs[i]);
      }
    }
    recorder_.Candidate(stream, tfidf_sum, tfs.data(),
                        ScoreBreakdown::Source::kSealedComponent);
  }

 private:
  const exec::QueryPlan& plan_;
  const Scorer& scorer_;
  QueryScratch& scratch_;
  exec::CandidateGate gate_;
  ExplainRecorder& recorder_;
};

}  // namespace

RtsiIndex::RtsiIndex(const RtsiConfig& config)
    : config_(Normalized(config)),
      scorer_(config.weights, config.freshness_tau_seconds),
      tree_(config_.lsm),
      live_terms_(config_.use_arena, tree_.memory_tracker()) {
  if (config.async_merge) {
    merge_executor_ = std::make_unique<ThreadPool>(1);
  }
}

RtsiIndex::~RtsiIndex() { WaitForMerges(); }

void RtsiIndex::SetUseBound(bool use_bound) {
  config_.use_bound = use_bound;
}

void RtsiIndex::SetUseSkipHeader(bool use_skip_header) {
  config_.use_skip_header = use_skip_header;
}

void RtsiIndex::SetMergePolicy(lsm::MergePolicy policy) {
  config_.lsm.policy = policy;
  tree_.SetPolicy(policy);
}

void RtsiIndex::SetCascadeObserver(std::function<void()> observer) {
  cascade_observer_ = std::move(observer);
}

void RtsiIndex::SetPreSwapObserver(std::function<void()> observer) {
  pre_swap_observer_ = std::move(observer);
}

void RtsiIndex::BindSharedScoring(
    std::shared_ptr<SharedScoringState> shared) {
  shared_scoring_ = std::move(shared);
  if (shared_scoring_ != nullptr) {
    // A shard that already holds state (snapshot restore, journal replay)
    // contributes its current maximum; the df aggregate is rebuilt by the
    // shard set, which sums every shard's table.
    shared_scoring_->BumpMaxPop(streams_.max_pop_count());
  }
}

void RtsiIndex::WaitForMerges() {
  if (merge_executor_ != nullptr) merge_executor_->Wait();
}

lsm::MergeHooks RtsiIndex::MakeMergeHooks() {
  lsm::MergeHooks hooks;
  hooks.is_deleted = [this](StreamId stream) {
    return streams_.IsDeleted(stream);
  };
  // Everything a query reads besides its pinned view — the live-term
  // table's exact totals and the stream table's component counts — must
  // describe the published view (DESIGN.md §6e). So a merge registers its
  // output's residency before the swap (the output's ceiling must cover
  // inserts racing the merge), but counts a stream's consolidated copies
  // as one, and evicts its live-table entries, only after the swap.
  hooks.on_purged = [this](StreamId stream) {
    // Safe before the swap: the stream is deleted, and deleted streams
    // are never scored (exec::ComputeScore), whatever the table holds.
    live_terms_.RemoveStream(stream);
  };
  hooks.on_stream = [this](StreamId stream, std::uint32_t,
                           const index::InvertedIndex& merged) {
    streams_.MergeResidency(stream, merged.component_id(),
                            merged.ceiling_cell());
  };
  hooks.on_retired = [this](StreamId stream, std::uint32_t copies,
                            const std::vector<ComponentId>& from) {
    // The merge inputs left the component list: their ceiling cells can
    // no longer reach a query, so the residency entries go, and the
    // copies now count as one component. When that consolidated several
    // residencies and the stream stopped broadcasting, the single
    // component's tf is the total and the live-term entries can go.
    std::lock_guard<std::mutex> stream_lock(StreamMutex(stream));
    const auto [count, live] = streams_.DropResidency(stream, copies, from);
    if (copies > 1 && count <= 1 && !live) live_terms_.RemoveStream(stream);
  };
  hooks.on_pre_swap = pre_swap_observer_;
  hooks.on_cascade_step = cascade_observer_;
  hooks.on_frozen = [this](const index::InvertedIndex& frozen) {
    // A new sealed component is about to become query-visible: register a
    // residency (stream -> ceiling cell) for every distinct stream it
    // holds, from the frozen postings themselves, so the set is exact
    // whatever racing freezes did to the L0 epochs.
    std::unordered_set<StreamId> streams;
    frozen.ForEachTerm([&](TermId, const TermPostings& postings) {
      for (const Posting& p : postings.entries()) streams.insert(p.stream);
    });
    for (const StreamId stream : streams) {
      streams_.AddSealedResidency(stream, frozen.component_id(),
                                  frozen.ceiling_cell());
    }
  };
  return hooks;
}

void RtsiIndex::DrainPendingFinished() {
  std::vector<StreamId> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_finished_.empty()) return;
    pending.assign(pending_finished_.begin(), pending_finished_.end());
    pending_finished_.clear();
  }
  // These streams finished with all postings in L0; the cascade that just
  // ran consolidated them into a single sealed component and published
  // every step, so the eviction cannot outrun the view.
  for (const StreamId stream : pending) {
    std::lock_guard<std::mutex> stream_lock(StreamMutex(stream));
    if (streams_.GetComponentCount(stream) <= 1 &&
        !tree_.StreamInL0(stream)) {
      live_terms_.RemoveStream(stream);
    }
  }
}

void RtsiIndex::InsertWindow(StreamId stream, Timestamp now,
                             const std::vector<TermCount>& terms, bool live) {
  {
    // Algorithm 1. Lines 1-3: append to I0's lists and update hash tables.
    // Under the stream's lock, so no eviction of this stream can decide on
    // the component count this window is about to raise.
    std::lock_guard<std::mutex> stream_lock(StreamMutex(stream));
    std::uint64_t pop_count = 0;
    const bool new_stream = streams_.OnInsert(stream, now, live, &pop_count);
    if (new_stream) {
      df_.AddDocument();
      if (shared_scoring_ != nullptr) shared_scoring_->df.AddDocument();
    } else if (!live_terms_.ContainsStream(stream) &&
               !streams_.IsDeleted(stream)) {
      SeedLiveTotals(stream);
    }
    const float pop_snapshot = static_cast<float>(pop_count);

    const std::vector<TermFreq> totals = live_terms_.AddWindow(stream, terms);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const TermCount& tc = terms[i];
      if (tc.tf == 0) continue;
      if (totals[i] == tc.tf) {  // First window holding this term.
        df_.AddOccurrence(tc.term);
        if (shared_scoring_ != nullptr) {
          shared_scoring_->df.AddOccurrence(tc.term);
        }
      }
      // AddPosting marks the stream's L0-epoch presence atomically with the
      // posting (under the term-shard lock), returning true on the stream's
      // first posting of the epoch. Incrementing per true return — instead
      // of one up-front MarkStreamInL0 — closes the race where a freeze
      // slipped between the mark and the adds and left the component count
      // short for the new epoch; a freeze splitting this window's postings
      // across two epochs now yields the correct two increments.
      if (tree_.AddPosting(tc.term,
                           Posting{stream, pop_snapshot, now, tc.tf})) {
        streams_.IncrementComponentCount(stream);
      }
    }
  }

  // Lines 4-7: merge cascade when I0 exceeds delta. With async_merge the
  // cascade runs on the background executor and insertion latency stays
  // flat; epoch-published views keep queries exact either way.
  if (tree_.NeedsMerge()) {
    if (merge_executor_ == nullptr) {
      tree_.MergeCascade(MakeMergeHooks());
      DrainPendingFinished();
    } else if (!merge_scheduled_.exchange(true)) {
      merge_executor_->Submit([this] {
        merge_scheduled_.store(false);
        tree_.MergeCascade(MakeMergeHooks());
        DrainPendingFinished();
      });
    }
  }
}

void RtsiIndex::SeedLiveTotals(StreamId stream) {
  // The stream was evicted from the live-term table once its postings sat
  // in one sealed component, and now receives windows again: they will
  // span two components, so the table needs its exact totals back, and
  // the sealed component holds the part before the eviction.
  const std::vector<ComponentId> residency = streams_.GetResidency(stream);
  if (residency.empty()) return;
  const lsm::IndexViewPtr view = tree_.PinView();
  for (const auto& component : view->components) {
    if (std::find(residency.begin(), residency.end(),
                  component->component_id()) == residency.end()) {
      continue;
    }
    component->ForEachTerm([&](TermId term, const TermPostings& postings) {
      Posting agg;
      if (postings.AggregateForStream(stream, agg)) {
        live_terms_.Add(stream, term, agg.tf);
      }
    });
  }
}

void RtsiIndex::FinishStream(StreamId stream) {
  std::lock_guard<std::mutex> stream_lock(StreamMutex(stream));
  streams_.MarkFinished(stream);
  if (streams_.GetComponentCount(stream) <= 1) {
    if (!tree_.StreamInL0(stream)) {
      live_terms_.RemoveStream(stream);
    } else {
      // Still has (possibly duplicate) postings in L0; evict from the
      // live-term table after the next merge consolidates them.
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_finished_.insert(stream);
    }
  }
  // Streams spanning several components are evicted by the post-swap
  // merge hook (on_retired) once consolidation brings them down to one
  // residency.
}

void RtsiIndex::DeleteStream(StreamId stream) {
  streams_.MarkDeleted(stream);  // Lazy: postings purged at merges.
  live_terms_.RemoveStream(stream);
}

void RtsiIndex::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  // The RTSI update path touches only the small per-stream table; the
  // popularity snapshots inside sealed lists stay as-is (the pruning
  // bound never reads them: it uses the global maximum counter).
  const std::uint64_t count = streams_.AddPopularity(stream, delta);
  if (shared_scoring_ != nullptr) shared_scoring_->BumpMaxPop(count);
}

std::vector<ScoredStream> RtsiIndex::Query(const std::vector<TermId>& terms,
                                           int k, Timestamp now,
                                           QueryStats* stats) {
  return QueryFiltered(terms, k, now, QueryFilter{}, stats);
}

std::vector<ScoredStream> RtsiIndex::QueryFiltered(
    const std::vector<TermId>& terms, int k, Timestamp now,
    const QueryFilter& filter, QueryStats* stats) {
  // The plan is built into the leased scratch, whose vectors keep their
  // capacity across queries, so the steady-state query path never
  // allocates a plan.
  ScratchLease lease(scratch_pool_);
  QueryScratch& scratch = *lease;
  BuildPlanInto(terms, k, now, filter, scratch.term_set, scratch.plan);
  exec::TopKSink sink(k);
  return Execute(scratch.plan, sink, scratch, stats);
}

QueryExplanation RtsiIndex::ExplainQuery(const std::vector<TermId>& terms,
                                         int k, Timestamp now,
                                         const QueryFilter& filter) {
  QueryExplanation explain;
  ScratchLease lease(scratch_pool_);
  QueryScratch& scratch = *lease;
  const exec::QueryPlan& plan = scratch.plan;
  BuildPlanInto(terms, k, now, filter, scratch.term_set, scratch.plan);
  explain.terms = plan.terms;
  explain.k = k;
  explain.now = now;
  if (plan.empty()) return explain;
  explain.idfs = plan.idfs;

  // The sequential walk again, with the recorder policies capturing
  // per-candidate breakdowns and the selector/driver filling
  // per-component bookkeeping.
  QueryStats qs;
  exec::TopKSink sink(k);
  std::unordered_map<StreamId, ScoreBreakdown> breakdowns;
  std::unordered_set<StreamId> scored;
  ExplainRecorder recorder(plan, scorer_, streams_, sink, qs, breakdowns);
  exec::RunLiveTablePhase(plan, scorer_, live_terms_, scratch, scored,
                          recorder);
  explain.live_table_candidates = scored.size();
  explain.l0_candidates =
      exec::RunL0Phase(plan, scorer_, tree_, scratch, scored, recorder, qs);
  const lsm::IndexViewPtr view = tree_.PinView();
  exec::SelectorOptions options;
  options.consult_headers = config_.use_skip_header;
  options.fallback_ceiling = streams_.max_frsh();
  const std::vector<exec::SelectedComponent> selected =
      exec::SelectComponents(
          plan, scorer_, view->components, options,
          {scratch.per_term, scratch.screen_own, scratch.screen_tfidf}, qs,
          &explain);
  ExplainSealedPolicy policy(plan, scorer_, scratch, streams_.max_stream_id(),
                             scored, recorder);
  exec::RunSealedSequential(plan, scorer_, selected, policy, sink, qs,
                            &explain);

  const std::vector<ScoredStream> results = sink.SortedResults();
  explain.results.reserve(results.size());
  for (const auto& r : results) {
    auto it = breakdowns.find(r.stream);
    if (it != breakdowns.end()) explain.results.push_back(it->second);
  }
  FoldLifetimeCounters(qs);
  return explain;
}

exec::QueryPlan RtsiIndex::BuildPlan(const std::vector<TermId>& terms,
                                     int k, Timestamp now,
                                     const QueryFilter& filter) const {
  exec::QueryPlan plan;
  std::vector<TermId> term_set;
  BuildPlanInto(terms, k, now, filter, term_set, plan);
  return plan;
}

void RtsiIndex::BuildPlanInto(const std::vector<TermId>& terms, int k,
                              Timestamp now, const QueryFilter& filter,
                              std::vector<TermId>& term_set,
                              exec::QueryPlan& plan) const {
  // Sharded deployments score with the corpus-global statistics so every
  // shard computes exactly the score a single unsharded index would; the
  // shard-local tables are a subset (df) / lower bound (max pop) of the
  // aggregate, so the max() only ever picks the shared value — it guards
  // against an aggregate that was bound but not yet refreshed.
  const DocumentFrequencyTable& df =
      shared_scoring_ != nullptr ? shared_scoring_->df : df_;
  const std::uint64_t max_pop =
      shared_scoring_ != nullptr
          ? std::max(shared_scoring_->max_pop.load(std::memory_order_relaxed),
                     streams_.max_pop_count())
          : streams_.max_pop_count();
  exec::BuildQueryPlan(terms, df, k, now, filter, max_pop, config_.use_bound,
                       /*prune_if_equal=*/false, term_set, plan);
}

void RtsiIndex::RunSequential(const exec::QueryPlan& plan,
                              exec::ResultSink& sink, QueryScratch& scratch,
                              QueryStats& qs) {
  std::unordered_set<StreamId> scored;
  exec::ExactScorer exact(plan, scorer_, streams_, sink, qs);
  exec::RunLiveTablePhase(plan, scorer_, live_terms_, scratch, scored,
                          exact);
  exec::RunL0Phase(plan, scorer_, tree_, scratch, scored, exact, qs);

  // The query pins ONE immutable view here — a single atomic load — and
  // traverses that view: no locks, no structure re-checks, no mirror
  // lookups. Merges publishing mid-query cannot perturb the pinned
  // component set, and pre-merge components stay alive because the pin
  // references them.
  const lsm::IndexViewPtr view = tree_.PinView();
  exec::SelectorOptions options;
  options.consult_headers = config_.use_skip_header;
  options.fallback_ceiling = streams_.max_frsh();
  const std::vector<exec::SelectedComponent> selected =
      exec::SelectComponents(
          plan, scorer_, view->components, options,
          {scratch.per_term, scratch.screen_own, scratch.screen_tfidf}, qs,
          nullptr);
  const bool screen_base = plan.use_bound && options.consult_headers;
  exec::SealedScorer policy(plan, scorer_, streams_, scored,
                            scratch.screen_tfidf, screen_base, scratch,
                            streams_.max_stream_id(), sink);
  exec::RunSealedSequential(plan, scorer_, selected, policy, sink, qs,
                            nullptr);
}

std::vector<ScoredStream> RtsiIndex::ExecutePlan(const exec::QueryPlan& plan,
                                                 exec::ResultSink& sink,
                                                 QueryStats* stats) {
  ScratchLease lease(scratch_pool_);
  return Execute(plan, sink, *lease, stats);
}

std::vector<ScoredStream> RtsiIndex::Execute(const exec::QueryPlan& plan,
                                             exec::ResultSink& sink,
                                             QueryScratch& scratch,
                                             QueryStats* stats) {
  // Diagnostics accumulate in a local and are published once on exit, so
  // the per-candidate increments never write through the caller's pointer.
  QueryStats qs;
  if (!plan.empty()) {
    RunSequential(plan, sink, scratch, qs);
    FoldLifetimeCounters(qs);
  }
  if (stats != nullptr) *stats = qs;
  return sink.SortedResults();
}

void RtsiIndex::FoldLifetimeCounters(const QueryStats& qs) {
  // Relaxed: statistics only (rtsi_cli stats).
  cum_visited_.fetch_add(qs.components_visited, std::memory_order_relaxed);
  cum_pruned_.fetch_add(qs.components_pruned, std::memory_order_relaxed);
  cum_skipped_.fetch_add(qs.components_skipped, std::memory_order_relaxed);
  cum_bloom_fp_.fetch_add(qs.bloom_false_positives,
                          std::memory_order_relaxed);
  cum_screened_.fetch_add(qs.candidates_screened, std::memory_order_relaxed);
}

std::size_t RtsiIndex::MemoryBytes() const {
  return tree_.MemoryBytes() + streams_.MemoryBytes() +
         live_terms_.MemoryBytes() + df_.MemoryBytes();
}

}  // namespace rtsi::core

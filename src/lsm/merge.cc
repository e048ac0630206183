#include "lsm/merge.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/latency_stats.h"

namespace rtsi::lsm {
namespace {

using index::InvertedIndex;
using index::Posting;
using index::TermPostings;

// Merge-transient containers draw from the caller's scratch arena (null
// allocator = global heap): node-based churn — one map node per distinct
// (term, stream) pair per merge — recycles through the arena free lists.
using ConsolidatedMap =
    std::unordered_map<StreamId, Posting, std::hash<StreamId>,
                       std::equal_to<StreamId>,
                       ArenaAllocator<std::pair<const StreamId, Posting>>>;
template <typename T>
using ArenaSet =
    std::unordered_set<T, std::hash<T>, std::equal_to<T>, ArenaAllocator<T>>;

// Folds `entries` of one term from one input into consolidated per-stream
// postings. Deletion is resolved per consolidated stream by the caller
// (one predicate call per stream, not per posting).
void Accumulate(const TermPostings& postings, ConsolidatedMap& consolidated,
                MergeStats* stats) {
  for (const Posting& p : postings.entries()) {
    auto [it, inserted] = consolidated.emplace(p.stream, p);
    if (!inserted) {
      Posting& merged = it->second;
      merged.tf += p.tf;
      merged.frsh = std::max(merged.frsh, p.frsh);
      merged.pop = std::max(merged.pop, p.pop);
      if (stats != nullptr) ++stats->consolidated_postings;
    }
  }
}

// Memoizes the lazy-deletion predicate: one call per distinct stream per
// merge, no matter how many terms the stream spans. Fires `on_purged` on
// the first deleted verdict for a stream. Owns copies of the functions:
// a cache may outlive the temporary MergeHooks it was built from.
class DeletionCache {
 public:
  DeletionCache(std::function<bool(StreamId)> is_deleted,
                std::function<void(StreamId)> on_purged)
      : is_deleted_(std::move(is_deleted)), on_purged_(std::move(on_purged)) {}

  bool operator()(StreamId stream) {
    if (!is_deleted_) return false;
    auto it = verdicts_.find(stream);
    if (it != verdicts_.end()) return it->second;
    const bool deleted = is_deleted_(stream);
    verdicts_.emplace(stream, deleted);
    if (deleted && on_purged_) on_purged_(stream);
    return deleted;
  }

 private:
  std::function<bool(StreamId)> is_deleted_;
  std::function<void(StreamId)> on_purged_;
  std::unordered_map<StreamId, bool> verdicts_;
};

}  // namespace

std::shared_ptr<InvertedIndex> CombineComponents(
    const std::vector<const InvertedIndex*>& inputs, int out_level,
    bool compress, const MergeHooks& hooks, MergeStats* stats,
    ComponentId out_id, index::FreshnessCeilingPtr out_cell,
    std::vector<MergedStream>* surviving, WindowArena* scratch) {
  Stopwatch watch;
  auto merged = std::make_shared<InvertedIndex>(out_level);
  merged->AdoptCeiling(out_id, std::move(out_cell));

  // Per-input surviving-stream sets; input_streams[i] collects every
  // stream input i holds a posting for. A stream's `copies` is how many
  // of these sets contain it.
  std::vector<ArenaSet<StreamId>> input_streams;
  input_streams.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    input_streams.emplace_back(ArenaAllocator<StreamId>(scratch));
  }
  ArenaSet<TermId> seen_terms{ArenaAllocator<TermId>(scratch)};
  DeletionCache deleted(hooks.is_deleted, hooks.on_purged);
  const bool track_streams = static_cast<bool>(hooks.on_stream);

  auto emit = [&](TermId term, ConsolidatedMap& consolidated) {
    std::vector<Posting, ArenaAllocator<Posting>> ordered{
        ArenaAllocator<Posting>(scratch)};
    ordered.reserve(consolidated.size());
    for (const auto& [stream, posting] : consolidated) {
      if (deleted(stream)) {
        if (stats != nullptr) ++stats->purged_postings;
        continue;
      }
      ordered.push_back(posting);
    }
    if (ordered.empty()) return;
    std::sort(ordered.begin(), ordered.end(),
              [](const Posting& x, const Posting& y) {
                return x.frsh < y.frsh;  // Append order: ascending frsh.
              });
    // Built in the scratch arena, then sealed: Seal() migrates the
    // entries to an exact-size heap buffer, so the stored component holds
    // no scratch memory and the arena can be recycled per cascade.
    TermPostings out(scratch);
    for (const Posting& p : ordered) out.Append(p);
    out.Seal();
    if (stats != nullptr) stats->postings_out += out.size();
    merged->Put(term, std::move(out));
  };

  // One pass per input i, in order: every term first seen at input i is
  // folded with the matching postings of every later input (looked up by
  // View); terms already consolidated by an earlier pass are skipped.
  // With two inputs this is exactly the historical merge — pass 1 walks
  // input 0's terms joining input 1, pass 2 walks input 1's leftovers —
  // so the same call sequence hits the same containers and the output is
  // bit-identical.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i]->ForEachTerm([&](TermId term, const TermPostings& postings_i) {
      if (i > 0 && seen_terms.count(term) > 0) return;
      seen_terms.insert(term);
      ConsolidatedMap consolidated{ConsolidatedMap::allocator_type(scratch)};
      if (track_streams) {
        for (const Posting& p : postings_i.entries()) {
          input_streams[i].insert(p.stream);
        }
      }
      Accumulate(postings_i, consolidated, stats);
      if (stats != nullptr) stats->postings_in += postings_i.size();

      for (std::size_t j = i + 1; j < inputs.size(); ++j) {
        const index::TermPostingsView view_j = inputs[j]->View(term);
        if (view_j) {
          if (track_streams) {
            for (const Posting& p : view_j->entries()) {
              input_streams[j].insert(p.stream);
            }
          }
          Accumulate(*view_j, consolidated, stats);
          if (stats != nullptr) stats->postings_in += view_j->size();
        }
      }
      emit(term, consolidated);
    });
  }

  // Pre-publication stream bookkeeping for the owner: each surviving
  // stream's residency gains the output's ceiling cell here, *before* the
  // output inherits the inputs' ceilings below and before the swap
  // publishes it. The input residencies are NOT dropped yet — the inputs
  // stay query-visible (published view, plus any older pinned views)
  // until the swap, and an insert in that window must keep bumping their
  // cells or a query holding such a view would prune with a ceiling below
  // the stream's live freshness. The owner retires them — and counts the
  // consolidated copies as one — via `on_retired` after the swap, using
  // the `surviving` list collected here.
  if (track_streams) {
    const auto survive = [&](StreamId stream, std::uint32_t copies) {
      hooks.on_stream(stream, copies, *merged);
      if (surviving != nullptr) surviving->push_back({stream, copies});
    };
    // Each stream is reported once, from the first input holding it; the
    // later sets only contribute to its copy count.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (const StreamId stream : input_streams[i]) {
        bool reported = false;
        for (std::size_t k = 0; k < i; ++k) {
          if (input_streams[k].count(stream) > 0) {
            reported = true;
            break;
          }
        }
        if (reported || deleted(stream)) continue;  // on_purged already fired.
        std::uint32_t copies = 1;
        for (std::size_t j = i + 1; j < inputs.size(); ++j) {
          if (input_streams[j].count(stream) > 0) ++copies;
        }
        survive(stream, copies);
      }
    }
  }
  for (const InvertedIndex* input : inputs) {
    merged->BumpCeiling(input->LiveFrshCeiling());
  }

  // Built before compression so the summaries read the plain per-stream
  // aggregates; merge output is consolidated, so the compressed maxima
  // would be identical — this just avoids a decode pass.
  merged->BuildSkipHeader();
  if (compress) merged->CompressAll();
  if (stats != nullptr) {
    ++stats->merges;
    stats->total_micros += watch.ElapsedMicros();
  }
  return merged;
}

std::shared_ptr<InvertedIndex> CombineComponents(
    const InvertedIndex& a, const InvertedIndex* b, int out_level,
    bool compress, const MergeHooks& hooks, MergeStats* stats,
    ComponentId out_id, index::FreshnessCeilingPtr out_cell,
    std::vector<MergedStream>* surviving, WindowArena* scratch) {
  std::vector<const InvertedIndex*> inputs;
  inputs.push_back(&a);
  if (b != nullptr) inputs.push_back(b);
  return CombineComponents(inputs, out_level, compress, hooks, stats, out_id,
                           std::move(out_cell), surviving, scratch);
}

}  // namespace rtsi::lsm

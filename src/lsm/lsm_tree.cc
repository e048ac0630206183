#include "lsm/lsm_tree.h"

#include <algorithm>

namespace rtsi::lsm {

using index::InvertedIndex;
using index::Posting;

LsmTree::LsmTree(const Config& config)
    : config_(config),
      policy_(config.policy),
      view_gauge_(std::make_shared<std::atomic<std::int64_t>>(0)) {
  const std::size_t num_shards = std::max<std::size_t>(config.num_l0_shards, 1);
  l0_shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<L0Shard>();
    if (config_.use_arena) {
      shard->arena = std::make_unique<WindowArena>(
          WindowArena::kDefaultSlabBytes, mem_tracker_);
      shard->index.set_arena(shard->arena.get());
    }
    l0_shards_.push_back(std::move(shard));
  }
  stream_seen_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    stream_seen_.push_back(std::make_unique<StreamSeenShard>());
  }
  // Publish the empty epoch-0 view so PinView() never returns null.
  auto gauge = view_gauge_;
  gauge->fetch_add(1, std::memory_order_relaxed);
  view_.Store(IndexViewPtr(new IndexView{}, [gauge](const IndexView* v) {
    gauge->fetch_sub(1, std::memory_order_relaxed);
    delete v;
  }));
}

bool LsmTree::AddPosting(TermId term, const Posting& posting) {
  L0Shard& shard = *l0_shards_[term % l0_shards_.size()];
  bool first_in_epoch = false;
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    shard.index.Add(term, posting);
    // Mark the stream while the term-shard lock is held: FreezeL0 drains
    // under *every* shard lock, so the posting and its epoch mark cannot
    // be split across a freeze (the historical mark-then-add race put the
    // posting in the new epoch with StreamInL0() false and the stream's
    // component count short by one). Lock order term-shard -> seen-shard
    // matches FreezeL0, which clears the seen sets while still holding
    // all term-shard locks.
    StreamSeenShard& seen =
        *stream_seen_[posting.stream % stream_seen_.size()];
    std::lock_guard<std::mutex> seen_lock(seen.mu);
    first_in_epoch = seen.seen.insert(posting.stream).second;
    // Counter bump inside the lock too: a freeze zeroes it under all
    // shard locks, so every bump lands on the same side as its posting.
    l0_postings_.fetch_add(1, std::memory_order_relaxed);
  }
  return first_in_epoch;
}

bool LsmTree::MarkStreamInL0(StreamId stream) {
  StreamSeenShard& shard = *stream_seen_[stream % stream_seen_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.seen.insert(stream).second;
}

bool LsmTree::StreamInL0(StreamId stream) const {
  StreamSeenShard& shard = *stream_seen_[stream % stream_seen_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.seen.count(stream) > 0;
}

std::vector<std::shared_ptr<const InvertedIndex>> LsmTree::SealedSnapshot()
    const {
  return PinView()->components;
}

void LsmTree::PublishLocked() {
  const IndexViewPtr old_view = view_.Load();
  auto next = std::make_unique<IndexView>();
  next->epoch = old_view->epoch + 1;
  for (const auto& level : levels_) {
    for (const auto& run : level) next->components.push_back(run);
  }
  for (const auto& component : pending_) {
    next->components.push_back(component);
  }
  // Record components that just left the view. Weak references only: the
  // registry observes the mirror-era lifetime without extending it.
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    for (const auto& component : old_view->components) {
      const bool still_visible =
          std::any_of(next->components.begin(), next->components.end(),
                      [&](const auto& c) { return c == component; });
      if (!still_visible) retired_.push_back(component);
    }
    // Opportunistically drop entries whose component has been freed.
    retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                  [](const auto& w) { return w.expired(); }),
                   retired_.end());
  }
  auto gauge = view_gauge_;
  gauge->fetch_add(1, std::memory_order_relaxed);
  view_.Store(IndexViewPtr(next.release(), [gauge](const IndexView* v) {
    gauge->fetch_sub(1, std::memory_order_relaxed);
    delete v;
  }));
}

void LsmTree::DetachRunLocked(
    const std::shared_ptr<const InvertedIndex>& run) {
  for (auto& level : levels_) {
    auto it = std::find(level.begin(), level.end(), run);
    if (it != level.end()) {
      level.erase(it);
      pending_.push_back(run);
      return;
    }
  }
}

void LsmTree::InstallRunLocked(std::shared_ptr<const InvertedIndex> run,
                               int level) {
  const auto slot = static_cast<std::size_t>(level < 0 ? 0 : level);
  if (levels_.size() <= slot) levels_.resize(slot + 1);
  levels_[slot].push_back(std::move(run));
}

void LsmTree::ErasePendingLocked(const InvertedIndex* component) {
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const auto& c) {
                                  return c.get() == component;
                                }),
                 pending_.end());
}

std::shared_ptr<InvertedIndex> LsmTree::FreezeL0(const MergeHooks& hooks) {
  // Take every shard lock in a fixed order, then drain.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(l0_shards_.size());
  for (auto& shard : l0_shards_) {
    locks.emplace_back(shard->mu);
  }
  auto frozen = std::make_shared<InvertedIndex>(0);
  for (auto& shard : l0_shards_) {
    for (auto& [term, postings] : shard->index.TakeTerms()) {
      frozen->Put(term, std::move(postings));
    }
  }
  if (frozen->empty()) {
    // Nothing to freeze: the l0_postings_ counter drifted above delta with
    // no actual postings behind it. Reset the epoch state and publish
    // NOTHING — the historical path pushed the empty component into the
    // view and re-published to erase it, so readers pinning the
    // intermediate epoch saw a permanently empty component and the epoch
    // advanced twice for a no-op.
    for (auto& seen_shard : stream_seen_) {
      std::lock_guard<std::mutex> lock(seen_shard->mu);
      seen_shard->seen.clear();
    }
    l0_postings_.store(0, std::memory_order_relaxed);
    return nullptr;
  }
  // Consolidate + seal: a stream that emitted several windows of one
  // term inside this epoch folds to one aggregated posting, so the
  // frozen component satisfies the same one-posting-per-stream invariant
  // as merge outputs — the pruning bounds (Bounds(), Threshold()) are
  // only sound under it. Matters doubly under tiered compaction, where
  // frozen runs stay query-visible for many epochs.
  frozen->ConsolidateAndSealAll();
  // Rotate the ingest arenas while the shard locks are still held: the
  // consolidation migrated every frozen posting vector to the heap, but the
  // retired arenas are quarantined on the frozen component anyway — they
  // die with it, after the last pinned view drops, so no code path
  // (present or future) can ever observe freed slabs. Fresh arenas take
  // over the next window's ingest.
  for (auto& shard : l0_shards_) {
    if (shard->arena == nullptr) continue;
    {
      // Fold the retiring arena's counters into the rotation accumulator
      // so ArenaStats() stays monotone across freezes (benches compute
      // per-insert deltas from it). Gauges are excluded: allocated_bytes
      // is zero after the consolidate-and-seal migration above, and owned_bytes
      // belongs to the quarantined arena until it dies with the
      // component — ArenaStats() gauges track the *current* arenas only.
      WindowArena::Stats retiring = shard->arena->GetStats();
      retiring.owned_bytes = 0;
      retiring.allocated_bytes = 0;
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      rotated_arena_stats_ += retiring;
    }
    frozen->RetainArena(std::move(shard->arena));
    shard->arena = std::make_unique<WindowArena>(
        WindowArena::kDefaultSlabBytes, mem_tracker_);
    shard->index.set_arena(shard->arena.get());
  }
  frozen->AdoptCeiling(AllocateComponentId(),
                       std::make_shared<index::FreshnessCeiling>());
  frozen->BuildSkipHeader();
  frozen->AttachSkipHeaderGauge(mem_tracker_);
  // Residency registration must complete before the component is
  // query-visible; the held L0 shard locks block any racing insert from
  // slipping a window between registration and visibility.
  if (hooks.on_frozen) hooks.on_frozen(*frozen);
  for (auto& seen_shard : stream_seen_) {
    std::lock_guard<std::mutex> lock(seen_shard->mu);
    seen_shard->seen.clear();
  }
  l0_postings_.store(0, std::memory_order_relaxed);
  {
    // Publish the frozen component before the shard locks drop, so no
    // posting is ever outside both L0 and the view. It enters the level-0
    // run list: an unmerged frozen run is a first-class level resident,
    // so a snapshot cut here restores cleanly.
    std::lock_guard<std::mutex> lock(components_mu_);
    InstallRunLocked(frozen, 0);
    PublishLocked();
  }
  return frozen;
}

void LsmTree::MergeCascade(const MergeHooks& hooks) {
  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  if (!NeedsMerge()) return;

  MergeStats stats;
  // Scratch arena for the cascade's transient allocation churn
  // (consolidation maps, ordering buffers, unsealed outputs); free lists
  // recycle across the cascade's merges. Sealed outputs never reference
  // it (Seal() migrates to exact-size heap buffers), so it dies here. No
  // tracker: the kLiveArena gauge reports live-data arenas only.
  std::unique_ptr<WindowArena> scratch;
  if (config_.use_arena) scratch = std::make_unique<WindowArena>();
  const std::shared_ptr<const InvertedIndex> frozen = FreezeL0(hooks);
  if (frozen == nullptr) return;  // Drifted counter, nothing frozen.
  if (hooks.on_cascade_step) hooks.on_cascade_step();

  const CompactionConfig policy_config{config_.delta, config_.rho,
                                       config_.tier_runs};
  const auto plan = MakeCompactionPolicy(policy(), policy_config);
  while (true) {
    CompactionStep step;
    {
      // Plan against the current run lists, then detach the chosen
      // inputs into pending_. The visible set is unchanged (run-list
      // entry -> pending), so no publish: the current view keeps serving
      // the inputs until the swap below.
      std::lock_guard<std::mutex> lock(components_mu_);
      if (!plan->PlanStep(levels_, &step) || step.inputs.empty()) break;
      for (const auto& input : step.inputs) DetachRunLocked(input);
    }

    std::vector<const InvertedIndex*> raw_inputs;
    raw_inputs.reserve(step.inputs.size());
    for (const auto& input : step.inputs) raw_inputs.push_back(input.get());
    std::vector<MergedStream> surviving;
    const std::shared_ptr<InvertedIndex> merged = CombineComponents(
        raw_inputs, step.out_level, config_.compress, hooks, &stats,
        AllocateComponentId(), std::make_shared<index::FreshnessCeiling>(),
        hooks.on_retired ? &surviving : nullptr, scratch.get());
    merged->AttachSkipHeaderGauge(mem_tracker_);
    if (hooks.on_pre_swap) hooks.on_pre_swap();

    {
      // One swap: inputs out, output in. Readers see either the old view
      // (inputs alive via their pin) or the new one, never a partial set.
      // A fully-purged (empty) output is simply dropped rather than
      // installed, so no view ever carries a permanently empty component.
      std::lock_guard<std::mutex> lock(components_mu_);
      for (const auto& input : step.inputs) ErasePendingLocked(input.get());
      if (!merged->empty()) InstallRunLocked(merged, step.out_level);
      PublishLocked();
    }
    // The inputs just left the published view: retire their residencies
    // so inserts stop bumping dead ceiling cells. Ordering (only after
    // the swap) is what keeps queries pinned to the old view sound.
    if (hooks.on_retired) {
      std::vector<ComponentId> from;
      from.reserve(step.inputs.size());
      for (const auto& input : step.inputs) {
        from.push_back(input->component_id());
      }
      for (const MergedStream& merged_stream : surviving) {
        hooks.on_retired(merged_stream.stream, merged_stream.copies, from);
      }
    }
    if (hooks.on_cascade_step) hooks.on_cascade_step();
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  merge_stats_ += stats;
}

Status LsmTree::RestoreSealedComponent(
    std::shared_ptr<index::InvertedIndex> component) {
  if (component == nullptr || component->level() < 0) {
    return Status::InvalidArgument("restored component must have level >= 0");
  }
  if (component->component_id() == kInvalidComponentId) {
    component->AdoptCeiling(AllocateComponentId(),
                            std::make_shared<index::FreshnessCeiling>());
  }
  // Pre-v4 snapshots carry no header; rebuild deterministically (the
  // result is byte-identical to what a v4 file would have persisted).
  if (component->skip_header() == nullptr) component->BuildSkipHeader();
  component->AttachSkipHeaderGauge(mem_tracker_);
  const int level = component->level();
  std::lock_guard<std::mutex> lock(components_mu_);
  InstallRunLocked(std::move(component), level);
  PublishLocked();
  return Status::Ok();
}

std::size_t LsmTree::total_postings() const {
  std::size_t total = l0_postings();
  std::lock_guard<std::mutex> lock(components_mu_);
  for (const auto& level : levels_) {
    for (const auto& run : level) total += run->num_postings();
  }
  for (const auto& component : pending_) total += component->num_postings();
  return total;
}

std::size_t LsmTree::num_levels() const {
  std::lock_guard<std::mutex> lock(components_mu_);
  std::size_t count = 0;
  for (const auto& level : levels_) {
    if (!level.empty()) ++count;
  }
  return count;
}

std::size_t LsmTree::num_runs() const {
  std::lock_guard<std::mutex> lock(components_mu_);
  std::size_t count = 0;
  for (const auto& level : levels_) count += level.size();
  return count;
}

std::vector<std::size_t> LsmTree::RunsPerLevel() const {
  std::lock_guard<std::mutex> lock(components_mu_);
  std::vector<std::size_t> runs;
  runs.reserve(levels_.size());
  for (const auto& level : levels_) runs.push_back(level.size());
  while (!runs.empty() && runs.back() == 0) runs.pop_back();
  return runs;
}

std::size_t LsmTree::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& shard : l0_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    bytes += shard->index.MemoryBytes();
  }
  // The published view is the query-visible set (level residents plus any
  // in-flight merge's inputs/outputs); retired-but-pinned bytes are
  // reported separately via RetiredBytes().
  for (const auto& component : PinView()->components) {
    bytes += component->MemoryBytes();
  }
  return bytes;
}

std::size_t LsmTree::retired_components() const {
  std::lock_guard<std::mutex> lock(retired_mu_);
  std::size_t alive = 0;
  for (const auto& weak : retired_) {
    if (!weak.expired()) ++alive;
  }
  return alive;
}

std::size_t LsmTree::RetiredBytes() const {
  std::lock_guard<std::mutex> lock(retired_mu_);
  std::size_t bytes = 0;
  for (const auto& weak : retired_) {
    if (const auto component = weak.lock()) bytes += component->MemoryBytes();
  }
  return bytes;
}

WindowArena::Stats LsmTree::ArenaStats() const {
  WindowArena::Stats total;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    total += rotated_arena_stats_;  // Counters of every retired arena.
  }
  for (const auto& shard : l0_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    if (shard->arena != nullptr) total += shard->arena->GetStats();
  }
  return total;
}

MergeStats LsmTree::GetMergeStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return merge_stats_;
}

}  // namespace rtsi::lsm

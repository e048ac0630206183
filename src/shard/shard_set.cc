#include "shard/shard_set.h"

#include <sys/stat.h>

#include <algorithm>
#include <mutex>

#include "exec/sink.h"

namespace rtsi::shard {

int ShardForStream(StreamId stream, int num_shards) {
  if (num_shards <= 1) return 0;
  // splitmix64 finalizer: full-avalanche, so consecutive stream ids land
  // on independent shards.
  std::uint64_t x = stream;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<std::uint64_t>(num_shards));
}

namespace {

std::string ShardDir(const std::string& root, int s) {
  return root + "/shard-" + std::to_string(s);
}

}  // namespace

IndexShardSet::IndexShardSet(const ShardSetConfig& config)
    : config_(config),
      shared_scoring_(std::make_shared<core::SharedScoringState>()) {
  const int n = std::max(1, config.num_shards);
  config_.num_shards = n;
  for (int s = 0; s < n; ++s) {
    plain_.push_back(std::make_unique<core::RtsiIndex>(config.index));
    shards_.push_back(plain_.back().get());
    raw_.push_back(plain_.back().get());
  }
  for (core::RtsiIndex* index : raw_) {
    index->BindSharedScoring(shared_scoring_);
  }
  ApplyShardPolicies();
}

IndexShardSet::IndexShardSet(
    const ShardSetConfig& config,
    std::vector<std::unique_ptr<core::RtsiIndex>> shards)
    : config_(config),
      plain_(std::move(shards)),
      shared_scoring_(std::make_shared<core::SharedScoringState>()) {
  config_.num_shards = static_cast<int>(plain_.size());
  for (auto& index : plain_) {
    shards_.push_back(index.get());
    raw_.push_back(index.get());
  }
  RefreshSharedScoring();
  ApplyShardPolicies();
}

Result<std::unique_ptr<IndexShardSet>> IndexShardSet::Open(
    const ShardSetConfig& config,
    std::vector<storage::RecoveryStats>* recovery) {
  if (config.durable_dir.empty()) {
    return Status::InvalidArgument(
        "IndexShardSet::Open needs durable_dir (use the constructor for "
        "in-memory shards)");
  }
  auto set = std::unique_ptr<IndexShardSet>(new IndexShardSet());
  set->config_ = config;
  const int n = std::max(1, config.num_shards);
  set->config_.num_shards = n;
  ::mkdir(config.durable_dir.c_str(), 0755);
  if (recovery != nullptr) recovery->clear();
  for (int s = 0; s < n; ++s) {
    const std::string dir = ShardDir(config.durable_dir, s);
    ::mkdir(dir.c_str(), 0755);
    storage::RecoveryStats stats;
    auto opened = storage::DurableIndex::Open(
        config.index, dir + "/index.snap", dir + "/index.journal",
        config.journal, &stats);
    if (!opened.ok()) {
      return Status::Internal("shard " + std::to_string(s) +
                              " failed to open: " +
                              opened.status().ToString());
    }
    if (recovery != nullptr) recovery->push_back(stats);
    set->durables_.push_back(std::move(opened.value()));
    set->shards_.push_back(set->durables_.back().get());
    set->raw_.push_back(&set->durables_.back()->index());
  }
  set->RefreshSharedScoring();
  set->ApplyShardPolicies();
  return set;
}

IndexShardSet::~IndexShardSet() { WaitForMerges(); }

void IndexShardSet::ApplyShardPolicies() {
  const std::size_t n = std::min(config_.shard_policies.size(), raw_.size());
  for (std::size_t s = 0; s < n; ++s) {
    raw_[s]->SetMergePolicy(config_.shard_policies[s]);
  }
}

void IndexShardSet::RefreshSharedScoring() {
  // Rebind a fresh aggregate rather than clearing the old one in place:
  // the old state may still be referenced by a query that pinned it.
  auto next = std::make_shared<core::SharedScoringState>();
  std::uint64_t documents = 0;
  for (core::RtsiIndex* index : raw_) {
    index->doc_freq().ForEach([&next](TermId term, std::uint64_t df) {
      next->df.AddCount(term, df);
    });
    documents += index->doc_freq().num_documents();
    next->BumpMaxPop(index->stream_table().max_pop_count());
  }
  next->df.SetNumDocuments(documents);
  shared_scoring_ = next;
  for (core::RtsiIndex* index : raw_) {
    index->BindSharedScoring(shared_scoring_);
  }
}

void IndexShardSet::InsertWindow(StreamId stream, Timestamp now,
                                 const std::vector<core::TermCount>& terms,
                                 bool live) {
  // The void interface cannot report the reuse guard; a rejected window
  // is dropped (on a sharded set it was undefined behavior before).
  (void)InsertWindowChecked(stream, now, terms, live);
}

Status IndexShardSet::InsertWindowChecked(
    StreamId stream, Timestamp now,
    const std::vector<core::TermCount>& terms, bool live) {
  const Status status = CheckInsert(stream);
  if (!status.ok()) return status;
  shards_[ShardOf(stream)]->InsertWindow(stream, now, terms, live);
  return Status::Ok();
}

Status IndexShardSet::CheckInsert(StreamId stream) const {
  if (num_shards() > 1) {
    std::shared_lock<std::shared_mutex> lock(retired_mu_);
    if (retired_.count(stream) > 0) {
      return Status::FailedPrecondition(
          "stream id " + std::to_string(stream) +
          " was retired by FinishStream/DeleteStream; sharded deployments "
          "must not reuse stream ids");
    }
  }
  return Status::Ok();
}

void IndexShardSet::RecordRetired(StreamId stream) {
  if (num_shards() <= 1) return;
  std::unique_lock<std::shared_mutex> lock(retired_mu_);
  retired_.insert(stream);
}

void IndexShardSet::FinishStream(StreamId stream) {
  shards_[ShardOf(stream)]->FinishStream(stream);
  RecordRetired(stream);
}

void IndexShardSet::DeleteStream(StreamId stream) {
  shards_[ShardOf(stream)]->DeleteStream(stream);
  RecordRetired(stream);
}

void IndexShardSet::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  shards_[ShardOf(stream)]->UpdatePopularity(stream, delta);
}

std::vector<core::ScoredStream> IndexShardSet::Query(
    const std::vector<TermId>& terms, int k, Timestamp now,
    core::QueryStats* stats) {
  return QueryFiltered(terms, k, now, core::QueryFilter{}, stats);
}

std::vector<core::ScoredStream> IndexShardSet::QueryFiltered(
    const std::vector<TermId>& terms, int k, Timestamp now,
    const core::QueryFilter& filter, core::QueryStats* stats) {
  const int n = num_shards();
  if (n == 1) {
    return raw_[0]->QueryFiltered(terms, k, now, filter, stats);
  }
  // Every shard pins its own IndexView wait-free on entry.
  std::vector<std::vector<core::ScoredStream>> partials(n);
  std::vector<core::QueryStats> partial_stats(n);
  for (int s = 0; s < n; ++s) {
    partials[s] =
        raw_[s]->QueryFiltered(terms, k, now, filter, &partial_stats[s]);
  }
  if (stats != nullptr) {
    core::QueryStats total;
    for (const core::QueryStats& ps : partial_stats) {
      exec::FoldStats(total, ps);
    }
    *stats = total;
  }
  // Gather through the pipeline's sink: each stream lives in exactly one
  // shard, so offering every per-shard top-k to one deterministic sink
  // yields exactly the top-k a single index over the union would return.
  return exec::GatherPartials(partials, k);
}

std::size_t IndexShardSet::MemoryBytes() const {
  std::size_t bytes = 0;
  for (core::SearchIndex* index : shards_) bytes += index->MemoryBytes();
  return bytes;
}

std::string IndexShardSet::name() const {
  return "RTSI[" + std::to_string(num_shards()) +
         (durable() ? " durable shards]" : " shards]");
}

core::RtsiIndex& IndexShardSet::shard_index(int s) { return *raw_[s]; }

const core::RtsiIndex& IndexShardSet::shard_index(int s) const {
  return *raw_[s];
}

storage::DurableIndex* IndexShardSet::durable_shard(int s) {
  return durables_.empty() ? nullptr : durables_[s].get();
}

Status IndexShardSet::Checkpoint() {
  Status first = Status::Ok();
  for (int s = 0; s < num_shards(); ++s) {
    const Status status = CheckpointShard(s);
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

Status IndexShardSet::CheckpointShard(int s) {
  if (durables_.empty()) {
    return Status::InvalidArgument("in-memory shard set: no checkpoints");
  }
  return durables_[s]->Checkpoint();
}

void IndexShardSet::WaitForMerges() {
  for (core::RtsiIndex* index : raw_) index->WaitForMerges();
}

void IndexShardSet::SetMergePolicy(int s, lsm::MergePolicy policy) {
  raw_[s]->SetMergePolicy(policy);
}

IndexShardSet::ShardStats IndexShardSet::GetShardStats(int s) const {
  ShardStats stats;
  stats.shard = s;
  const core::RtsiIndex& index = *raw_[s];
  stats.view_epoch = index.tree().epoch();
  stats.runs_per_level = index.tree().RunsPerLevel();
  stats.postings = index.tree().total_postings();
  stats.streams = index.stream_table().size();
  stats.arena_bytes = index.LiveArenaStats().allocated_bytes;
  stats.memory_bytes = index.MemoryBytes();
  if (!durables_.empty()) stats.degraded = durables_[s]->degraded();
  return stats;
}

}  // namespace rtsi::shard

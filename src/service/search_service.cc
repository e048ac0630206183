#include "service/search_service.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "asr/phoneme.h"
#include "audio/synthesizer.h"

namespace rtsi::service {
namespace {

shard::ShardSetConfig ShardConfig(const SearchServiceConfig& config) {
  shard::ShardSetConfig shard_config;
  shard_config.index = config.index;
  shard_config.num_shards = std::max(1, config.shards);
  shard_config.shard_policies = config.shard_merge_policies;
  return shard_config;
}

}  // namespace

SearchService::SearchService(const SearchServiceConfig& config, Clock* clock)
    : config_(config), clock_(clock), rng_(config.seed) {
  pipeline_ = std::make_unique<IngestionPipeline>(config.ingestion,
                                                  &text_dict_, &sound_dict_);
  query_processor_ = std::make_unique<QueryProcessor>(
      pipeline_.get(), &text_dict_, &sound_dict_,
      config.ingestion.lattice_ngram,
      config.ingestion.lattice_alt_threshold, config.ingestion.stem_text);
  auto initial = std::make_shared<IndexPair>();
  initial->text = std::make_shared<shard::IndexShardSet>(ShardConfig(config));
  initial->sound = std::make_shared<shard::IndexShardSet>(ShardConfig(config));
  indices_.Store(std::move(initial));
}

void SearchService::ReplaceIndices(std::unique_ptr<core::RtsiIndex> text,
                                   std::unique_ptr<core::RtsiIndex> sound) {
  // Adopt each restored index as a single-shard set; the adopt path
  // rebuilds the shared scoring aggregate from the restored tables.
  auto wrap = [this](std::unique_ptr<core::RtsiIndex> index) {
    shard::ShardSetConfig shard_config = ShardConfig(config_);
    shard_config.num_shards = 1;
    std::vector<std::unique_ptr<core::RtsiIndex>> shards;
    shards.push_back(std::move(index));
    return std::make_shared<shard::IndexShardSet>(shard_config,
                                                  std::move(shards));
  };
  auto next = std::make_shared<IndexPair>();
  next->text = wrap(std::move(text));
  next->sound = wrap(std::move(sound));
  restores_in_flight_.fetch_add(1, std::memory_order_release);
  indices_.Store(std::move(next));
  restores_in_flight_.fetch_sub(1, std::memory_order_release);
}

Status SearchService::IngestWindow(StreamId stream,
                                   const std::vector<std::string>& words,
                                   bool live) {
  const auto indices = PinIndices();
  // Validate against both modalities before touching either, so a
  // rejected window leaves the pair consistent. The check precedes the
  // ASR simulation too: a rejected window must not advance the seeded
  // RNG, or batched/unbatched runs would diverge after a rejection.
  Status status = indices->text->CheckInsert(stream);
  if (status.ok()) status = indices->sound->CheckInsert(stream);
  if (!status.ok()) return status;
  WindowArtifacts artifacts;
  {
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    artifacts = pipeline_->ProcessWindow(words, rng_);
  }
  const Timestamp now = clock_->Now();
  indices->text->InsertWindow(stream, now, artifacts.text_terms, live);
  indices->sound->InsertWindow(stream, now, artifacts.sound_terms, live);
  return Status::Ok();
}

Status SearchService::IngestBatch(const std::vector<IngestOp>& ops) {
  const auto indices = PinIndices();
  // All-or-nothing: validate every op's stream id (both modalities)
  // before any window of the batch is applied or any RNG draw happens.
  for (const IngestOp& op : ops) {
    Status status = indices->text->CheckInsert(op.stream);
    if (status.ok()) status = indices->sound->CheckInsert(op.stream);
    if (!status.ok()) return status;
  }
  std::vector<WindowArtifacts> artifacts(ops.size());
  {
    // One RNG acquisition for the whole batch: the draw sequence matches
    // the same ops issued individually, keeping seeded runs comparable
    // between the batched and unbatched front-ends.
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      artifacts[i] = pipeline_->ProcessWindow(ops[i].words, rng_);
    }
  }
  const Timestamp now = clock_->Now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    indices->text->InsertWindow(ops[i].stream, now, artifacts[i].text_terms,
                                ops[i].live);
    indices->sound->InsertWindow(ops[i].stream, now, artifacts[i].sound_terms,
                                 ops[i].live);
  }
  return Status::Ok();
}

void SearchService::FinishStream(StreamId stream) {
  const auto indices = PinIndices();
  indices->text->FinishStream(stream);
  indices->sound->FinishStream(stream);
}

void SearchService::DeleteStream(StreamId stream) {
  const auto indices = PinIndices();
  indices->text->DeleteStream(stream);
  indices->sound->DeleteStream(stream);
}

void SearchService::UpdatePopularity(StreamId stream, std::uint64_t delta) {
  const auto indices = PinIndices();
  indices->text->UpdatePopularity(stream, delta);
  indices->sound->UpdatePopularity(stream, delta);
}

std::vector<SearchResult> SearchService::Fuse(
    const std::vector<core::ScoredStream>& text_results,
    const std::vector<core::ScoredStream>& sound_results, int k) const {
  std::unordered_map<StreamId, SearchResult> fused;
  for (const core::ScoredStream& r : text_results) {
    SearchResult& result = fused[r.stream];
    result.stream = r.stream;
    result.text_score = r.score;
  }
  for (const core::ScoredStream& r : sound_results) {
    SearchResult& result = fused[r.stream];
    result.stream = r.stream;
    result.sound_score = r.score;
  }
  std::vector<SearchResult> out;
  out.reserve(fused.size());
  const double wt = config_.text_weight;
  for (auto& [stream, result] : fused) {
    result.score = wt * result.text_score + (1.0 - wt) * result.sound_score;
    out.push_back(result);
  }
  std::sort(out.begin(), out.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.stream < b.stream;  // Deterministic on ties.
            });
  if (out.size() > static_cast<std::size_t>(k)) out.resize(k);
  return out;
}

std::vector<SearchResult> SearchService::SearchBothModalities(
    const IndexPair& indices, const std::vector<TermId>& text_terms,
    const std::vector<TermId>& sound_terms, int fetch, int k) {
  const Timestamp now = clock_->Now();
  const auto text_results = indices.text->Query(text_terms, fetch, now);
  const auto sound_results = indices.sound->Query(sound_terms, fetch, now);
  return Fuse(text_results, sound_results, k);
}

std::vector<SearchResult> SearchService::SearchKeywords(
    const std::string& query, int k) {
  if (k <= 0) k = config_.default_k;
  ProcessedQuery processed;
  {
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    processed = query_processor_->ProcessKeywords(query, rng_);
  }
  // Over-fetch per modality so fusion has material to rerank. The pinned
  // pair keeps both indices alive for the whole search even if a restore
  // publishes a replacement mid-query.
  const auto indices = PinIndices();
  return SearchBothModalities(*indices, processed.text_terms,
                              processed.sound_terms, 2 * k, k);
}

std::vector<SearchResult> SearchService::SearchVoice(
    const audio::PcmBuffer& pcm, int k) {
  if (k <= 0) k = config_.default_k;
  ProcessedQuery processed;
  {
    std::lock_guard<std::mutex> rng_lock(rng_mu_);
    processed = query_processor_->ProcessVoice(pcm, rng_);
  }
  const auto indices = PinIndices();
  return SearchBothModalities(*indices, processed.text_terms,
                              processed.sound_terms, 2 * k, k);
}

audio::PcmBuffer SearchService::SynthesizeQuery(
    const std::vector<std::string>& words) {
  std::vector<audio::PhoneSpec> specs;
  for (const std::string& word : words) {
    for (const asr::PhonemeId phone : pipeline_->lexicon().Pronounce(word)) {
      specs.push_back(asr::PhonemeSpec(phone));
    }
  }
  audio::SynthesizerConfig synth_config;
  const audio::Synthesizer synth(synth_config);
  std::lock_guard<std::mutex> rng_lock(rng_mu_);
  return synth.Render(specs, rng_);
}

}  // namespace rtsi::service

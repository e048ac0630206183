// Brute-force reference for /search: an exhaustive scorer kept apart from
// the index, and the checks that compare served results against it.
//
// The reference re-derives every window's indexed terms by running the
// ingestion pipeline with the service's seed over the same window order
// (the pipeline's RNG draws and dictionary growth then match the
// service's exactly), keeps per-stream term totals keyed by term string,
// and scores a query by visiting every stream that holds a query term:
//
//   f = w_pop·log1p(pop)/log1p(max_pop) + w_rel·m/(1+m) + w_frsh·e^(-age/tau)
//   m = Σ_t (1 + ln tf)·log(1 + N/(1 + df_t)) / |terms|
//
// per modality (Eq. 1), then fuses each modality's top-2k exactly as the
// service does: w·text + (1−w)·sound, ranked by (score desc, stream asc).

#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/config.h"
#include "service/ingestion.h"
#include "service/query_processor.h"
#include "text/term_dictionary.h"

namespace e2ebench {

/// One fused result, as served or as computed by the reference.
struct Hit {
  rtsi::StreamId stream = 0;
  double score = 0.0;
  double text = 0.0;
  double sound = 0.0;
};

/// A reference answer: the fused top-k plus every fused candidate (the
/// union of both modalities' top-2k), so a served stream that ties at the
/// k-th place can be looked up too.
struct ReferenceAnswer {
  std::vector<Hit> top;
  std::unordered_map<rtsi::StreamId, Hit> candidates;
};

/// Per-modality scored stream.
struct Scored {
  rtsi::StreamId stream = 0;
  double score = 0.0;
};

class ReferenceIndex {
 public:
  /// `index` supplies the Eq. 1 weights and freshness scale, `ingestion`
  /// the pipeline configuration, `seed` the service seed.
  ReferenceIndex(const rtsi::core::RtsiConfig& index,
                 const rtsi::service::IngestionConfig& ingestion,
                 double text_weight, std::uint64_t seed);

  /// Mirrors SearchService::UpdatePopularity.
  void AddPopularity(rtsi::StreamId stream, std::uint64_t delta);

  /// Mirrors SearchService::IngestWindow(stream, words) at time `now`.
  void AddWindow(rtsi::StreamId stream, rtsi::Timestamp now,
                 const std::vector<std::string>& words);

  /// Exhaustive per-modality scores of every stream holding a query term,
  /// ranked by (score desc, stream asc). `terms` are deduplicated.
  std::vector<Scored> ScoreModality(int modality,
                                    const std::vector<std::string>& terms,
                                    rtsi::Timestamp now) const;

  /// The fused answer for a keyword query.
  ReferenceAnswer Search(const std::string& query, int k,
                         rtsi::Timestamp now) const;

 private:
  struct StreamState {
    std::uint64_t pop = 0;
    rtsi::Timestamp frsh = 0;
    bool has_content = false;
  };
  // term string -> (stream -> total tf); one map per modality.
  using Postings =
      std::unordered_map<std::string,
                         std::unordered_map<rtsi::StreamId, std::uint32_t>>;

  /// The query's deduplicated term strings per modality.
  void QueryTerms(const std::string& query, std::vector<std::string>& text,
                  std::vector<std::string>& sound) const;

  rtsi::core::RtsiConfig index_config_;
  double text_weight_;
  rtsi::text::TermDictionary text_dict_;
  rtsi::text::TermDictionary sound_dict_;
  std::unique_ptr<rtsi::service::IngestionPipeline> pipeline_;
  std::unique_ptr<rtsi::service::QueryProcessor> processor_;
  rtsi::Rng rng_;
  Postings postings_[2];
  std::unordered_map<rtsi::StreamId, StreamState> streams_;
  std::uint64_t max_pop_ = 0;
};

/// Served top-k vs reference: same length, pairwise-equal scores within
/// `eps` (so rank order among ties is free), and every served stream a
/// reference candidate whose fused, text and sound scores match within
/// `eps`, served at most once. Returns "" when they agree, else the first
/// difference.
std::string CheckAgainstReference(const std::vector<Hit>& served,
                                  const ReferenceAnswer& want, double eps);

/// Properties every /search response must have: at most k results,
/// non-increasing fused scores, and fused == w·text + (1−w)·sound within
/// `eps`. Returns "" when they hold.
std::string CheckWellFormed(const std::vector<Hit>& served, int k,
                            double text_weight, double eps);

/// Parses a /search JSON body ({"results":[{"stream":..,"score":..,
/// "text_score":..,"sound_score":..},...]}). Returns false on malformed
/// input.
bool ParseResults(const std::string& body, std::vector<Hit>& out);

}  // namespace e2ebench

#endif  // E2EBENCH_REFERENCE_H_

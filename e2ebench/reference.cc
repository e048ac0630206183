#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

namespace e2ebench {
namespace {

bool RanksAbove(const Scored& a, const Scored& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.stream < b.stream;
}

std::string Describe(const char* what, std::size_t i, double got,
                     double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s at rank %zu: served %.12g, want %.12g",
                what, i, got, want);
  return buf;
}

}  // namespace

ReferenceIndex::ReferenceIndex(const rtsi::core::RtsiConfig& index,
                               const rtsi::service::IngestionConfig& ingestion,
                               double text_weight, std::uint64_t seed)
    : index_config_(index), text_weight_(text_weight), rng_(seed) {
  pipeline_ = std::make_unique<rtsi::service::IngestionPipeline>(
      ingestion, &text_dict_, &sound_dict_);
  processor_ = std::make_unique<rtsi::service::QueryProcessor>(
      pipeline_.get(), &text_dict_, &sound_dict_, ingestion.lattice_ngram,
      ingestion.lattice_alt_threshold, ingestion.stem_text);
}

void ReferenceIndex::AddPopularity(rtsi::StreamId stream,
                                   std::uint64_t delta) {
  StreamState& state = streams_[stream];
  state.pop += delta;
  max_pop_ = std::max(max_pop_, state.pop);
}

void ReferenceIndex::AddWindow(rtsi::StreamId stream, rtsi::Timestamp now,
                               const std::vector<std::string>& words) {
  const rtsi::service::WindowArtifacts artifacts =
      pipeline_->ProcessWindow(words, rng_);
  StreamState& state = streams_[stream];
  state.has_content = true;
  state.frsh = std::max(state.frsh, now);
  for (const auto& tc : artifacts.text_terms) {
    if (tc.tf == 0) continue;
    postings_[0][std::string(text_dict_.TermString(tc.term))][stream] +=
        tc.tf;
  }
  for (const auto& tc : artifacts.sound_terms) {
    if (tc.tf == 0) continue;
    postings_[1][std::string(sound_dict_.TermString(tc.term))][stream] +=
        tc.tf;
  }
}

void ReferenceIndex::QueryTerms(const std::string& query,
                                std::vector<std::string>& text,
                                std::vector<std::string>& sound) const {
  rtsi::Rng rng(1);  // Keyword processing does not depend on the draws.
  const rtsi::service::ProcessedQuery processed =
      processor_->ProcessKeywords(query, rng);
  auto collect = [](const rtsi::text::TermDictionary& dict,
                    const std::vector<rtsi::TermId>& ids,
                    std::vector<std::string>& out) {
    out.clear();
    for (const rtsi::TermId id : ids) {
      std::string term(dict.TermString(id));
      if (std::find(out.begin(), out.end(), term) == out.end()) {
        out.push_back(std::move(term));
      }
    }
  };
  collect(text_dict_, processed.text_terms, text);
  collect(sound_dict_, processed.sound_terms, sound);
}

std::vector<Scored> ReferenceIndex::ScoreModality(
    int modality, const std::vector<std::string>& terms,
    rtsi::Timestamp now) const {
  std::size_t documents = 0;
  for (const auto& [stream, state] : streams_) {
    if (state.has_content) ++documents;
  }
  const double n = static_cast<double>(documents);
  const Postings& postings = postings_[modality];
  std::vector<const std::unordered_map<rtsi::StreamId, std::uint32_t>*> lists;
  std::vector<double> idfs;
  std::unordered_set<rtsi::StreamId> candidates;
  for (const std::string& term : terms) {
    const auto it = postings.find(term);
    if (it == postings.end()) {
      lists.push_back(nullptr);
      idfs.push_back(0.0);
      continue;
    }
    lists.push_back(&it->second);
    idfs.push_back(std::log1p(n / (1.0 + static_cast<double>(
                                             it->second.size()))));
    for (const auto& [stream, tf] : it->second) candidates.insert(stream);
  }

  const rtsi::core::ScoreWeights& w = index_config_.weights;
  const double tau = std::max(index_config_.freshness_tau_seconds, 1.0);
  std::vector<Scored> out;
  out.reserve(candidates.size());
  for (const rtsi::StreamId stream : candidates) {
    const StreamState& state = streams_.at(stream);
    double tfidf = 0.0;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (lists[i] == nullptr) continue;
      const auto hit = lists[i]->find(stream);
      if (hit == lists[i]->end()) continue;
      tfidf += (1.0 + std::log(static_cast<double>(hit->second))) * idfs[i];
    }
    const double mean = tfidf / static_cast<double>(terms.size());
    const double rel = tfidf > 0.0 ? mean / (1.0 + mean) : 0.0;
    const double pop =
        max_pop_ == 0 ? 0.0
                      : std::log1p(static_cast<double>(state.pop)) /
                            std::log1p(static_cast<double>(max_pop_));
    const double age =
        static_cast<double>(now > state.frsh ? now - state.frsh : 0) / 1e6;
    const double frsh = std::exp(-age / tau);
    out.push_back({stream, w.pop * pop + w.rel * rel + w.frsh * frsh});
  }
  std::sort(out.begin(), out.end(), RanksAbove);
  return out;
}

ReferenceAnswer ReferenceIndex::Search(const std::string& query, int k,
                                       rtsi::Timestamp now) const {
  std::vector<std::string> terms[2];
  QueryTerms(query, terms[0], terms[1]);
  ReferenceAnswer answer;
  const std::size_t fetch = 2 * static_cast<std::size_t>(k);
  for (int m = 0; m < 2; ++m) {
    std::vector<Scored> ranked = ScoreModality(m, terms[m], now);
    if (ranked.size() > fetch) ranked.resize(fetch);
    for (const Scored& s : ranked) {
      Hit& hit = answer.candidates[s.stream];
      hit.stream = s.stream;
      (m == 0 ? hit.text : hit.sound) = s.score;
    }
  }
  std::vector<Scored> fused;
  for (auto& [stream, hit] : answer.candidates) {
    hit.score = text_weight_ * hit.text + (1.0 - text_weight_) * hit.sound;
    fused.push_back({stream, hit.score});
  }
  std::sort(fused.begin(), fused.end(), RanksAbove);
  if (fused.size() > static_cast<std::size_t>(k)) fused.resize(k);
  for (const Scored& s : fused) answer.top.push_back(answer.candidates[s.stream]);
  return answer;
}

std::string CheckAgainstReference(const std::vector<Hit>& served,
                                  const ReferenceAnswer& want, double eps) {
  if (served.size() != want.top.size()) {
    return "served " + std::to_string(served.size()) + " results, want " +
           std::to_string(want.top.size());
  }
  std::unordered_set<rtsi::StreamId> seen;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const Hit& got = served[i];
    if (std::fabs(got.score - want.top[i].score) > eps) {
      return Describe("fused score", i, got.score, want.top[i].score);
    }
    if (!seen.insert(got.stream).second) {
      return "stream " + std::to_string(got.stream) + " served twice";
    }
    const auto it = want.candidates.find(got.stream);
    if (it == want.candidates.end()) {
      return "stream " + std::to_string(got.stream) +
             " is not a reference candidate";
    }
    if (std::fabs(got.text - it->second.text) > eps) {
      return Describe("text score", i, got.text, it->second.text);
    }
    if (std::fabs(got.sound - it->second.sound) > eps) {
      return Describe("sound score", i, got.sound, it->second.sound);
    }
    if (std::fabs(got.score - it->second.score) > eps) {
      return Describe("stream's fused score", i, got.score,
                      it->second.score);
    }
  }
  return "";
}

std::string CheckWellFormed(const std::vector<Hit>& served, int k,
                            double text_weight, double eps) {
  if (served.size() > static_cast<std::size_t>(k)) {
    return "served " + std::to_string(served.size()) + " results for k=" +
           std::to_string(k);
  }
  for (std::size_t i = 0; i < served.size(); ++i) {
    const Hit& hit = served[i];
    if (i > 0 && hit.score > served[i - 1].score) {
      return Describe("increasing fused score", i, hit.score,
                      served[i - 1].score);
    }
    const double fused =
        text_weight * hit.text + (1.0 - text_weight) * hit.sound;
    if (std::fabs(hit.score - fused) > eps) {
      return Describe("fusion identity", i, hit.score, fused);
    }
  }
  return "";
}

bool ParseResults(const std::string& body, std::vector<Hit>& out) {
  out.clear();
  if (body.rfind("{\"results\":[", 0) != 0) return false;
  auto field = [&body](std::size_t from, const char* key, double& value,
                       std::size_t& next) {
    const std::size_t at = body.find(key, from);
    if (at == std::string::npos) return false;
    const char* start = body.c_str() + at + std::strlen(key);
    char* end = nullptr;
    value = std::strtod(start, &end);
    if (end == start) return false;
    next = static_cast<std::size_t>(end - body.c_str());
    return true;
  };
  std::size_t pos = 12;
  while (true) {
    const std::size_t obj = body.find('{', pos);
    if (obj == std::string::npos) break;
    Hit hit;
    double stream = 0.0;
    std::size_t next = obj;
    if (!field(next, "\"stream\":", stream, next) ||
        !field(next, "\"score\":", hit.score, next) ||
        !field(next, "\"text_score\":", hit.text, next) ||
        !field(next, "\"sound_score\":", hit.sound, next)) {
      return false;
    }
    hit.stream = static_cast<rtsi::StreamId>(stream);
    out.push_back(hit);
    pos = next;
  }
  return body.find("]}", pos) != std::string::npos;
}

}  // namespace e2ebench

#include "service/query_processor.h"

#include <algorithm>

#include "text/tokenizer.h"

namespace rtsi::service {
namespace {

// Phone ids packed into a string key for the reverse-lexicon map.
std::string PhoneKey(const asr::PhonemeId* phones, std::size_t n) {
  std::string key;
  key.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    key.push_back(static_cast<char>(phones[i] + 1));
  }
  return key;
}

}  // namespace

QueryProcessor::QueryProcessor(IngestionPipeline* pipeline,
                               const text::TermDictionary* text_dict,
                               const text::TermDictionary* sound_dict,
                               int lattice_ngram,
                               double lattice_alt_threshold, bool stem_text)
    : pipeline_(pipeline),
      text_dict_(text_dict),
      sound_dict_(sound_dict),
      lattice_ngram_(lattice_ngram),
      lattice_alt_threshold_(lattice_alt_threshold),
      stem_text_(stem_text) {}

ProcessedQuery QueryProcessor::ProcessKeywords(const std::string& query,
                                               Rng& rng) const {
  ProcessedQuery out;
  const text::Tokenizer tokenizer;
  out.keywords = tokenizer.Tokenize(query);

  for (const std::string& keyword : out.keywords) {
    const TermId id = text_dict_->Lookup(
        stem_text_ ? stemmer_.Stem(keyword) : keyword);
    if (id != kInvalidTermId) out.text_terms.push_back(id);
  }

  // Keyword -> voice: derive lattice units through G2P so the query also
  // hits the sound tree. Pronunciation uses the raw (unstemmed) words.
  const asr::PhoneticLattice lattice =
      pipeline_->BuildLattice(out.keywords, rng);
  for (const std::string& unit :
       lattice.ExtractUnits(lattice_ngram_, lattice_alt_threshold_)) {
    const TermId id = sound_dict_->Lookup(unit);
    if (id != kInvalidTermId) out.sound_terms.push_back(id);
  }
  return out;
}

std::vector<std::string> QueryProcessor::PhonesToKeywords(
    const std::vector<asr::PhonemeId>& phones) const {
  // Reverse lexicon: packed phone sequence -> word. Built per call from a
  // snapshot; voice queries are interactive-rate, not bulk-rate.
  std::unordered_map<std::string, std::string> reverse;
  std::size_t max_len = 1;
  for (auto& [word, pron] : pipeline_->lexicon().Entries()) {
    if (pron.empty()) continue;
    max_len = std::max(max_len, pron.size());
    reverse.emplace(PhoneKey(pron.data(), pron.size()), word);
  }

  // Greedy longest-match segmentation of the phone sequence.
  std::vector<std::string> words;
  std::size_t pos = 0;
  while (pos < phones.size()) {
    bool matched = false;
    const std::size_t longest = std::min(max_len, phones.size() - pos);
    for (std::size_t len = longest; len >= 1; --len) {
      auto it = reverse.find(PhoneKey(&phones[pos], len));
      if (it != reverse.end()) {
        words.push_back(it->second);
        pos += len;
        matched = true;
        break;
      }
    }
    if (!matched) ++pos;  // Unknown phone: skip it.
  }
  return words;
}

ProcessedQuery QueryProcessor::ProcessVoice(
    const audio::PcmBuffer& pcm) const {
  ProcessedQuery out;
  const asr::PhoneticLattice lattice = pipeline_->decoder().Decode(pcm);

  for (const std::string& unit :
       lattice.ExtractUnits(lattice_ngram_, lattice_alt_threshold_)) {
    const TermId id = sound_dict_->Lookup(unit);
    if (id != kInvalidTermId) out.sound_terms.push_back(id);
  }

  // Voice -> keywords: segment the best phone path into lexicon words.
  out.keywords = PhonesToKeywords(lattice.BestPath());
  for (const std::string& keyword : out.keywords) {
    const TermId id = text_dict_->Lookup(
        stem_text_ ? stemmer_.Stem(keyword) : keyword);
    if (id != kInvalidTermId) out.text_terms.push_back(id);
  }
  return out;
}

}  // namespace rtsi::service

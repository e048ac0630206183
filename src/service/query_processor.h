// Multi-modal query processing (the bottom half of Figure 4).
//
// Keyword queries are converted to voice (grapheme-to-phoneme, then
// lattice units) so they can also hit the sound LSM-tree; voice queries
// are decoded to phonetic lattices, converted to keywords (phone-sequence
// lookup against the lexicon), so they can also hit the text LSM-tree.
//
// The processor holds no index state: it reads frozen dictionaries and
// the pipeline's lexicon, so concurrent queries may share it freely —
// each caller supplies its own (or an externally serialized) Rng. The
// index side of a query runs against the immutable view the caller pins.

#ifndef RTSI_SERVICE_QUERY_PROCESSOR_H_
#define RTSI_SERVICE_QUERY_PROCESSOR_H_

#include <string>
#include <vector>

#include "asr/lattice.h"
#include "asr/lexicon.h"
#include "audio/pcm.h"
#include "common/types.h"
#include "service/ingestion.h"
#include "text/term_dictionary.h"

namespace rtsi::service {

/// The index-ready form of a query: terms for each modality's tree.
struct ProcessedQuery {
  std::vector<TermId> text_terms;
  std::vector<TermId> sound_terms;
  std::vector<std::string> keywords;  // Recognized / input keywords.
};

class QueryProcessor {
 public:
  /// Uses the pipeline's lexicon, decoder and dictionaries. Terms unknown
  /// to a dictionary are dropped for that modality (they cannot match).
  /// `stem_text` must match the ingestion configuration so query keywords
  /// hit the same index terms.
  QueryProcessor(IngestionPipeline* pipeline,
                 const text::TermDictionary* text_dict,
                 const text::TermDictionary* sound_dict, int lattice_ngram,
                 double lattice_alt_threshold, bool stem_text = false);

  /// Keyword query: tokenizes, also derives lattice units via G2P.
  ProcessedQuery ProcessKeywords(const std::string& query, Rng& rng) const;

  /// Voice query: decodes the audio, derives lattice units, and converts
  /// the best phone path back to keywords via the lexicon. Draws no
  /// randomness, so it needs no caller-side serialization.
  ProcessedQuery ProcessVoice(const audio::PcmBuffer& pcm) const;

  /// Recognizes whole words from a phone sequence by segmenting it against
  /// cached lexicon pronunciations (greedy longest match). Exposed for
  /// tests.
  std::vector<std::string> PhonesToKeywords(
      const std::vector<asr::PhonemeId>& phones) const;

 private:
  IngestionPipeline* pipeline_;              // Not owned.
  const text::TermDictionary* text_dict_;    // Not owned.
  const text::TermDictionary* sound_dict_;   // Not owned.
  int lattice_ngram_;
  double lattice_alt_threshold_;
  bool stem_text_;
  text::Stemmer stemmer_;
};

}  // namespace rtsi::service

#endif  // RTSI_SERVICE_QUERY_PROCESSOR_H_

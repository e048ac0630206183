// Self-tests of the benchmark's own machinery: the nearest-rank
// percentile against hand-computed values, the reference checker
// against perturbed answers, and the reference scorer against a live
// service on a small corpus. Exits non-zero if any check fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/clock.h"
#include "percentile.h"
#include "reference.h"
#include "service/search_service.h"
#include "workload/corpus.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void TestNearestRank() {
  using e2ebench::NearestRank;
  // Ranks: ceil(q·n), so for n = 10 the p50 is the 5th sample, the p90
  // the 9th, the p99 and the max the 10th; p0 is the minimum.
  const std::vector<double> ten = {7, 1, 9, 3, 5, 10, 2, 8, 4, 6};
  Expect(NearestRank(ten, 0.5) == 5, "p50 of 1..10 is 5");
  Expect(NearestRank(ten, 0.9) == 9, "p90 of 1..10 is 9");
  Expect(NearestRank(ten, 0.99) == 10, "p99 of 1..10 is 10");
  Expect(NearestRank(ten, 1.0) == 10, "p100 of 1..10 is 10");
  Expect(NearestRank(ten, 0.0) == 1, "p0 of 1..10 is 1");
  Expect(NearestRank(ten, 0.51) == 6, "p51 of 1..10 is 6");
  // n = 1000: the p99 is the 990th smallest, leaving ten samples above.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  Expect(NearestRank(thousand, 0.99) == 990, "p99 of 1..1000 is 990");
  Expect(NearestRank(thousand, 0.5) == 500, "p50 of 1..1000 is 500");
  Expect(NearestRank({}, 0.5) == 0, "empty sample set reads 0");
  Expect(e2ebench::Median({3, 1, 2}) == 2, "median of {3,1,2} is 2");
}

void TestChecker() {
  using e2ebench::Hit;
  e2ebench::ReferenceAnswer want;
  const double w = 0.6;
  for (rtsi::StreamId s = 1; s <= 4; ++s) {
    Hit h{s, 0.0, 0.5 - 0.1 * static_cast<double>(s), 0.2};
    h.score = w * h.text + (1 - w) * h.sound;
    want.top.push_back(h);
    want.candidates[s] = h;
  }
  const std::vector<Hit> exact = want.top;
  Expect(e2ebench::CheckAgainstReference(exact, want, 1e-9).empty(),
         "checker accepts the reference answer");
  Expect(e2ebench::CheckWellFormed(exact, 4, w, 1e-9).empty(),
         "reference answer is well formed");

  std::vector<Hit> dropped = exact;
  dropped.erase(dropped.begin() + 1);
  Expect(!e2ebench::CheckAgainstReference(dropped, want, 1e-9).empty(),
         "checker rejects a dropped stream");

  std::vector<Hit> swapped = exact;
  std::swap(swapped[0], swapped[2]);
  Expect(!e2ebench::CheckAgainstReference(swapped, want, 1e-9).empty(),
         "checker rejects swapped ranks");
  Expect(!e2ebench::CheckWellFormed(swapped, 4, w, 1e-9).empty(),
         "well-formedness rejects swapped ranks");

  std::vector<Hit> off = exact;
  off[3].score += 1e-6;
  Expect(!e2ebench::CheckAgainstReference(off, want, 1e-9).empty(),
         "checker rejects a fused score off by 1e-6");
  Expect(!e2ebench::CheckWellFormed(off, 4, w, 1e-9).empty(),
         "well-formedness rejects a broken fusion identity");

  std::vector<Hit> text_off = exact;
  text_off[2].text += 1e-6;
  text_off[2].score += w * 1e-6;
  Expect(!e2ebench::CheckAgainstReference(text_off, want, 1e-9).empty(),
         "checker rejects a modality score off by 1e-6");

  // Two streams tied on score may come in either order.
  e2ebench::ReferenceAnswer tied = want;
  tied.candidates[2].text = tied.candidates[1].text;
  tied.candidates[2].score = tied.candidates[1].score;
  tied.top[1] = tied.candidates[2];
  std::vector<Hit> tie_order = {tied.top[1], tied.top[0], tied.top[2],
                                tied.top[3]};
  Expect(e2ebench::CheckAgainstReference(tie_order, tied, 1e-9).empty(),
         "checker ignores rank order among ties");

  Expect(!e2ebench::CheckWellFormed(exact, 3, w, 1e-9).empty(),
         "well-formedness rejects more than k results");

  std::vector<Hit> parsed;
  Expect(e2ebench::ParseResults(
             "{\"results\":[{\"stream\":7,\"score\":0.5,\"text_score\":0.5,"
             "\"sound_score\":0.5},{\"stream\":3,\"score\":1e-05,"
             "\"text_score\":0,\"sound_score\":2.5e-05}]}\n",
             parsed) &&
             parsed.size() == 2 && parsed[0].stream == 7 &&
             parsed[1].sound == 2.5e-05,
         "parser reads a /search body");
  Expect(!e2ebench::ParseResults("{\"error\":\"missing q\"}", parsed),
         "parser rejects an error body");
}

void TestReferenceMatchesService() {
  rtsi::workload::CorpusConfig corpus_config;
  corpus_config.num_streams = 40;
  corpus_config.vocab_size = 300;
  corpus_config.words_per_window = 40;
  corpus_config.avg_windows_per_stream = 4;
  corpus_config.min_windows_per_stream = 2;
  const rtsi::workload::SyntheticCorpus corpus(corpus_config);

  rtsi::service::SearchServiceConfig config;
  config.index.lsm.delta = 512;  // Several freezes and merges.
  config.index.bound_mode = rtsi::core::BoundMode::kGlobalPop;
  rtsi::SimulatedClock clock(1'000'000);
  rtsi::service::SearchService service(config, &clock);
  e2ebench::ReferenceIndex reference(config.index, config.ingestion,
                                     config.text_weight, config.seed);
  for (rtsi::StreamId s = 0; s < corpus_config.num_streams; ++s) {
    const std::uint64_t pop = corpus.InitialPopularity(s) + 1;
    service.UpdatePopularity(s, pop);
    reference.AddPopularity(s, pop);
    for (int w = 0; w < corpus.NumWindows(s); ++w) {
      const auto words = corpus.WindowWords(s, w);
      service.IngestWindow(s, words, true);
      reference.AddWindow(s, clock.Now(), words);
      clock.Advance(60'000'000);
    }
    service.FinishStream(s);
  }
  for (int q = 0; q < 30; ++q) {
    const std::string query =
        "w" + std::to_string(q % 7) + " w" + std::to_string(3 * q + 1);
    const auto served = service.SearchKeywords(query, 5);
    std::vector<e2ebench::Hit> hits;
    for (const auto& r : served) {
      hits.push_back({r.stream, r.score, r.text_score, r.sound_score});
    }
    const auto want = reference.Search(query, 5, clock.Now());
    const std::string diff =
        e2ebench::CheckAgainstReference(hits, want, 1e-9);
    Expect(diff.empty(), "service matches reference for '" + query +
                             "': " + diff);
    if (!hits.empty()) {
      // The same answer with its last stream dropped must be refused.
      hits.pop_back();
      Expect(!e2ebench::CheckAgainstReference(hits, want, 1e-9).empty(),
             "checker refuses a truncated service answer");
    }
  }
}

}  // namespace

int main() {
  TestNearestRank();
  TestChecker();
  TestReferenceMatchesService();
  if (failures == 0) std::printf("e2ebench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

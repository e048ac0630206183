#include "server/search_handler.h"

#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/rtsi_index.h"
#include "shard/shard_set.h"

namespace rtsi::server {
namespace {

const char* kIndexPage = R"(<!doctype html>
<html><head><title>RTSI live audio search</title></head>
<body style="font-family: sans-serif; max-width: 40em; margin: 2em auto">
<h2>RTSI &mdash; multi-modal live audio search</h2>
<form action="/search">
  <input name="q" size="40" placeholder="keywords...">
  <button>search</button>
</form>
<p>Endpoints: <code>/search?q=...</code>, <code>/live?q=...</code>,
<code>/ingest?stream=1&amp;words=a+b+c</code>,
<code>/finish?stream=1</code>, <code>/pop?stream=1&amp;delta=100</code>,
<code>/stats</code></p>
</body></html>
)";

std::vector<std::string> SplitWords(const std::string& s) {
  std::vector<std::string> words;
  std::istringstream in(s);
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

// Scores print with max_digits10 significant digits, so a client parsing
// the body gets back exactly the doubles the service computed (the
// stream default of 6 digits rounds them).
std::ostringstream ScoreStream() {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  return out;
}

std::string ResultsToJson(
    const std::vector<service::SearchResult>& results) {
  std::ostringstream out = ScoreStream();
  out << "{\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out << ',';
    out << "{\"stream\":" << results[i].stream
        << ",\"score\":" << results[i].score
        << ",\"text_score\":" << results[i].text_score
        << ",\"sound_score\":" << results[i].sound_score << '}';
  }
  out << "]}\n";
  return out.str();
}

int QueryInt(const HttpRequest& request, const char* key,
             int default_value) {
  auto it = request.query.find(key);
  if (it == request.query.end()) return default_value;
  return std::atoi(it->second.c_str());
}

std::string QueryString(const HttpRequest& request, const char* key) {
  auto it = request.query.find(key);
  return it == request.query.end() ? std::string() : it->second;
}

/// The ingest ops one /ingest request carries: the query-param window
/// and/or one window per body line ("STREAM word word ...").
struct ParsedIngest {
  std::vector<service::IngestOp> ops;
  std::size_t words = 0;
  std::string error;
};

ParsedIngest ParseIngest(const HttpRequest& request) {
  ParsedIngest parsed;
  const bool live = QueryInt(request, "live", 1) != 0;
  const std::string words = QueryString(request, "words");
  const std::string stream = QueryString(request, "stream");
  if (!words.empty() && !stream.empty()) {
    service::IngestOp op;
    op.stream = std::strtoull(stream.c_str(), nullptr, 10);
    op.words = SplitWords(words);
    op.live = live;
    parsed.words += op.words.size();
    parsed.ops.push_back(std::move(op));
  }
  std::istringstream lines(request.body);
  std::string line;
  while (std::getline(lines, line)) {
    auto tokens = SplitWords(line);
    if (tokens.empty()) continue;
    if (tokens.size() < 2) {
      parsed.error = "body line needs STREAM followed by words";
      return parsed;
    }
    service::IngestOp op;
    op.stream = std::strtoull(tokens[0].c_str(), nullptr, 10);
    op.words.assign(tokens.begin() + 1, tokens.end());
    op.live = live;
    parsed.words += op.words.size();
    parsed.ops.push_back(std::move(op));
  }
  if (parsed.ops.empty() && parsed.error.empty()) {
    parsed.error = "need stream and words (query params or body lines)";
  }
  return parsed;
}

void AppendShardArray(std::ostringstream& out,
                      const shard::IndexShardSet& shards) {
  out << '[';
  for (int s = 0; s < shards.num_shards(); ++s) {
    const auto stats = shards.GetShardStats(s);
    if (s > 0) out << ',';
    out << "{\"shard\":" << stats.shard
        << ",\"view_epoch\":" << stats.view_epoch << ",\"runs_per_level\":[";
    for (std::size_t l = 0; l < stats.runs_per_level.size(); ++l) {
      if (l > 0) out << ',';
      out << stats.runs_per_level[l];
    }
    out << "],\"postings\":" << stats.postings
        << ",\"streams\":" << stats.streams
        << ",\"arena_bytes\":" << stats.arena_bytes
        << ",\"memory_bytes\":" << stats.memory_bytes
        << ",\"degraded\":" << (stats.degraded ? "true" : "false") << '}';
  }
  out << ']';
}

void AppendQueueStats(std::ostringstream& out,
                      const ServerQueueStats& queue) {
  out << "{\"pending\":" << queue.pending
      << ",\"in_flight\":" << queue.in_flight
      << ",\"connections\":" << queue.connections
      << ",\"accepted\":" << queue.accepted << ",\"shed\":" << queue.shed
      << ",\"batches\":" << queue.batches
      << ",\"batched_requests\":" << queue.batched_requests
      << ",\"pending_by_path\":{";
  bool first = true;
  for (const auto& [path, depth] : queue.pending_by_path) {
    if (!first) out << ',';
    first = false;
    out << '"' << JsonEscape(path) << "\":" << depth;
  }
  out << "}}";
}

}  // namespace

void RegisterSearchRoutes(HttpServerBase& http,
                          service::SearchService& service,
                          SimulatedClock& clock) {
  http.Route("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/html", kIndexPage};
  });

  http.Route("/search", [&service](const HttpRequest& request) {
    const std::string q = QueryString(request, "q");
    if (q.empty()) {
      return HttpResponse{400, "application/json",
                          "{\"error\":\"missing q\"}\n"};
    }
    const int k = QueryInt(request, "k", 10);
    return HttpResponse{200, "application/json",
                        ResultsToJson(service.SearchKeywords(q, k))};
  });

  http.Route("/live", [&service, &clock](const HttpRequest& request) {
    const std::string q = QueryString(request, "q");
    if (q.empty()) {
      return HttpResponse{400, "application/json",
                          "{\"error\":\"missing q\"}\n"};
    }
    const int k = QueryInt(request, "k", 10);
    // Live-only search on the text shards via the filtered query API.
    Rng rng(1);
    const auto processed =
        service.query_processor().ProcessKeywords(q, rng);
    core::QueryFilter filter;
    filter.live_only = true;
    const auto pinned = service.PinIndices();
    const auto results = pinned->text->QueryFiltered(
        processed.text_terms, k, clock.Now(), filter);
    std::ostringstream out = ScoreStream();
    out << "{\"live_results\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i > 0) out << ',';
      out << "{\"stream\":" << results[i].stream
          << ",\"score\":" << results[i].score << '}';
    }
    out << "]}\n";
    return HttpResponse{200, "application/json", out.str()};
  });

  // Batch route: the async server coalesces queued /ingest requests into
  // one call — all their windows land through a single IngestBatch (one
  // RNG acquisition, one pinned pair).
  http.RouteBatch(
      "/ingest", [&service](const std::vector<HttpRequest>& requests) {
        std::vector<HttpResponse> responses(requests.size());
        std::vector<service::IngestOp> ops;
        std::vector<std::size_t> op_requests;  // Requests that added ops.
        for (std::size_t i = 0; i < requests.size(); ++i) {
          ParsedIngest parsed = ParseIngest(requests[i]);
          if (!parsed.error.empty()) {
            responses[i] = HttpResponse{
                400, "application/json",
                "{\"error\":\"" + JsonEscape(parsed.error) + "\"}\n"};
            continue;
          }
          for (auto& op : parsed.ops) ops.push_back(std::move(op));
          op_requests.push_back(i);
          responses[i] = HttpResponse{
              200, "application/json",
              "{\"indexed\":" + std::to_string(parsed.words) + "}\n"};
        }
        if (!ops.empty()) {
          const Status status = service.IngestBatch(ops);
          if (!status.ok()) {
            // The batch is all-or-nothing (the sharded id-reuse guard
            // validates before applying), so every contributing request
            // gets the precondition failure.
            for (const std::size_t i : op_requests) {
              responses[i] = HttpResponse{
                  412, "application/json",
                  "{\"error\":\"" + JsonEscape(status.message()) + "\"}\n"};
            }
          }
        }
        return responses;
      });

  http.Route("/finish", [&service](const HttpRequest& request) {
    const std::string stream = QueryString(request, "stream");
    if (stream.empty()) {
      return HttpResponse{400, "application/json",
                          "{\"error\":\"need stream\"}\n"};
    }
    service.FinishStream(std::strtoull(stream.c_str(), nullptr, 10));
    return HttpResponse{200, "application/json", "{\"ok\":true}\n"};
  });

  http.Route("/pop", [&service](const HttpRequest& request) {
    const std::string stream = QueryString(request, "stream");
    const int delta = QueryInt(request, "delta", 1);
    if (stream.empty() || delta <= 0) {
      return HttpResponse{400, "application/json",
                          "{\"error\":\"need stream and delta\"}\n"};
    }
    service.UpdatePopularity(std::strtoull(stream.c_str(), nullptr, 10),
                             static_cast<std::uint64_t>(delta));
    return HttpResponse{200, "application/json", "{\"ok\":true}\n"};
  });

  http.Route("/stats", [&service, &http](const HttpRequest&) {
    const auto pinned = service.PinIndices();
    const shard::IndexShardSet& text = *pinned->text;
    const shard::IndexShardSet& sound = *pinned->sound;
    std::size_t text_postings = 0, sound_postings = 0, text_runs = 0;
    std::size_t streams = 0, live_streams = 0;
    std::uint64_t merges = 0;
    for (int s = 0; s < text.num_shards(); ++s) {
      const core::RtsiIndex& index = text.shard_index(s);
      text_postings += index.tree().total_postings();
      text_runs += index.tree().num_runs();
      streams += index.stream_table().size();
      live_streams += index.live_table().num_streams();
      merges += index.GetMergeStats().merges;
    }
    for (int s = 0; s < sound.num_shards(); ++s) {
      sound_postings += sound.shard_index(s).tree().total_postings();
    }
    std::ostringstream out;
    out << "{\"text_postings\":" << text_postings
        << ",\"sound_postings\":" << sound_postings
        << ",\"text_levels\":" << text.shard_index(0).tree().num_levels()
        << ",\"text_runs\":" << text_runs << ",\"policy\":\""
        << lsm::MergePolicyName(text.shard_index(0).tree().policy())
        << "\",\"merges\":" << merges << ",\"streams\":" << streams
        << ",\"live_streams\":" << live_streams
        << ",\"words\":" << service.text_dictionary().size()
        << ",\"lattice_units\":" << service.sound_dictionary().size()
        << ",\"memory_bytes\":" << (text.MemoryBytes() + sound.MemoryBytes())
        << ",\"num_shards\":" << text.num_shards() << ",\"shards\":";
    AppendShardArray(out, text);
    out << ",\"queue\":";
    AppendQueueStats(out, http.QueueStats());
    out << "}\n";
    return HttpResponse{200, "application/json", out.str()};
  });
}

}  // namespace rtsi::server

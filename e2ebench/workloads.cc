#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include "common/clock.h"
#include "core/rtsi_index.h"
#include "http_client.h"
#include "percentile.h"
#include "reference.h"
#include "server/http_server.h"
#include "server/search_handler.h"
#include "service/search_service.h"
#include "shard/shard_set.h"
#include "workload/corpus.h"
#include "workload/query_gen.h"

namespace e2ebench {
namespace {

using rtsi::StreamId;
using rtsi::Timestamp;
using SteadyClock = std::chrono::steady_clock;

constexpr int kTopK = 10;
// /search prints scores with six significant digits; scores lie in
// [0, 1], so a printed score is within 5e-7 of the served double.
constexpr double kPrintEps = 5e-6;
// In-process answers carry full doubles.
constexpr double kExactEps = 1e-9;
constexpr Timestamp kMicrosPerSecond = 1'000'000;
constexpr Timestamp kWindowMicros = 60 * kMicrosPerSecond;
constexpr Timestamp kClockStart = 3600 * kMicrosPerSecond;
constexpr std::size_t kVocabulary = 20'000;
constexpr double kOovShare = 0.05;
constexpr int kCanaryRepeats = 5;
constexpr int kProbeSearchAttempts = 3;
constexpr std::size_t kMaxErrors = 5;
constexpr int kSetupRuns = 3;               // Preloads per untraced run.
constexpr std::size_t kLoadQueries = 20'000;  // Length of the load sequence.

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             SteadyClock::now().time_since_epoch())
      .count();
}

double CpuUs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// CPU time of the whole process: the servers' threads and the load
/// generator's. Time the host takes from the virtual CPU is not counted.
double ProcessCpuUs() { return CpuUs(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time of the calling thread.
double ThreadCpuUs() { return CpuUs(CLOCK_THREAD_CPUTIME_ID); }

/// Pins the calling thread, and so every thread it starts afterwards (the
/// servers' and the load generator's), to the highest-numbered CPU it may
/// run on. Returns that CPU, or -1 if the affinity cannot be set. On a
/// shared virtual machine, a hand-off between threads on different
/// virtual CPUs waits for the host to wake the target one, and how long
/// that takes changes from run to run with the host's load; on one CPU
/// every hand-off is a plain context switch.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t Scaled(double base, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::llround(base * scale)));
}

// ---------------------------------------------------------------------------
// Workload plans.

struct Plan {
  int shards = 1;
  std::size_t archive_streams = 0;
  std::size_t audit_queries = 0;
  // The gated phases run in `rounds` rounds (see RunRounds); the search
  // phases' lengths are shares of --seconds, split evenly over rounds.
  int rounds = 10;
  double open_share = 0.0;
  double closed_share = 0.0;
  double open_rate = 0.0;  // Offered /search req/s, open loop.
  int open_threads = 2;
  int closed_threads = 2;
  // Windows POSTed and freshness probes, over all rounds.
  std::size_t live_cohort = 0;
  std::size_t ingest_windows = 0;
  std::size_t probes = 0;
};

bool MakePlan(const Options& options, Plan& plan) {
  if (options.workload != "search_archive" &&
      options.workload != "search_sharded") {
    return false;
  }
  const double scale = options.scale;
  plan.shards = options.workload == "search_sharded" ? 4 : 1;
  plan.archive_streams = Scaled(600, scale, 8);
  plan.audit_queries = Scaled(200, scale, 20);
  plan.open_share = 0.55;
  plan.closed_share = 0.35;
  plan.open_rate = std::max(20.0, 250.0 * std::min(1.0, scale * 10));
  plan.live_cohort = 32;
  plan.ingest_windows = Scaled(3000, scale, 10 * plan.live_cohort);
  plan.probes = Scaled(3000, scale, 10 * 10);
  return true;
}

// ---------------------------------------------------------------------------
// Inputs: corpus, preload schedule, query sequences.

// The archive, the live windows (canaries included) and the service RNG
// are the same for every seed. The ingest service sees only windows and
// canary searches, in a fixed order, so every run ingests the same
// transcripts and its LSM tree freezes and merges at the same points: a
// merge cascade costs a large share of the ingest time, and windows drawn
// per seed would move cascades from run to run. The seed draws the
// queries.
constexpr std::uint64_t kArchiveSeed = 12345;
constexpr std::uint64_t kLiveSeed = 54321;
constexpr std::uint64_t kServiceSeed = 42;

rtsi::workload::CorpusConfig CorpusFor(std::uint64_t seed) {
  rtsi::workload::CorpusConfig config;
  config.num_streams = 1'000'000;  // Ids are derived per stream on demand.
  config.vocab_size = kVocabulary;
  config.zipf_skew = 1.0;
  config.words_per_window = 80;
  config.avg_windows_per_stream = 8;
  config.min_windows_per_stream = 3;
  config.seed = seed;
  return config;
}

rtsi::service::SearchServiceConfig ServiceConfigFor(const Plan& plan) {
  rtsi::service::SearchServiceConfig config;
  config.shards = plan.shards;
  config.seed = kServiceSeed;
  config.default_k = kTopK;
  // The sound pruning bound. The default kSnapshot bound takes each
  // posting's freshness at insertion, but a stream's later windows raise
  // the freshness its older postings are scored with, so on multi-window
  // streams the pruned walk can drop a stream the full walk returns (see
  // CHANGES.md). kGlobalPop bounds with the live ceilings instead, which
  // is what lets every answer be checked against the exhaustive
  // reference.
  config.index.bound_mode = rtsi::core::BoundMode::kGlobalPop;
  return config;
}

/// One step of the archive preload.
struct PreloadOp {
  enum Kind { kPopularity, kWindow, kFinish, kTick } kind;
  StreamId stream = 0;
  int window = 0;
  bool live = false;
  std::uint64_t popularity = 0;
};

/// Streams broadcast in cohorts of 64: each gets its play counter, then
/// the cohort's windows go in round by round (60 simulated seconds per
/// round), and each stream finishes after its last window.
std::vector<PreloadOp> PreloadSchedule(
    const rtsi::workload::SyntheticCorpus& corpus, std::size_t streams) {
  constexpr std::size_t kCohort = 64;
  std::vector<PreloadOp> ops;
  for (std::size_t first = 0; first < streams; first += kCohort) {
    const std::size_t last = std::min(streams, first + kCohort);
    int rounds = 0;
    for (std::size_t s = first; s < last; ++s) {
      rounds = std::max(rounds, corpus.NumWindows(s));
      ops.push_back({PreloadOp::kPopularity, s, 0, false,
                     corpus.InitialPopularity(s) + 1});
    }
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t s = first; s < last; ++s) {
        const int n = corpus.NumWindows(s);
        if (r >= n) continue;
        ops.push_back({PreloadOp::kWindow, s, r, r + 1 < n, 0});
        if (r + 1 == n) ops.push_back({PreloadOp::kFinish, s, 0, false, 0});
      }
      ops.push_back({PreloadOp::kTick, 0, 0, false, 0});
    }
  }
  return ops;
}

std::string OovWord(rtsi::Rng& rng) {
  std::string word = "zq";
  for (int i = 0; i < 4; ++i) {
    word.push_back(static_cast<char>('a' + rng.NextUint64(26)));
  }
  return word;
}

/// 2-term Zipf(0.8) queries over the corpus vocabulary; a kOovShare of
/// them carry one out-of-vocabulary word instead of a second term.
std::vector<std::string> QuerySequence(std::uint64_t seed, std::size_t n) {
  rtsi::workload::QueryGenConfig config;
  config.vocab_size = kVocabulary;
  config.zipf_skew = 0.8;
  config.min_terms = 2;
  config.max_terms = 2;
  config.seed = seed;
  rtsi::workload::QueryGenerator generator(config);
  rtsi::Rng oov(DeriveSeed(seed, 9));
  std::vector<std::string> queries;
  queries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<rtsi::TermId> terms = generator.Next();
    std::string query = "w" + std::to_string(terms[0]) + " ";
    query += oov.NextBool(kOovShare) ? OovWord(oov)
                                     : "w" + std::to_string(terms[1]);
    queries.push_back(std::move(query));
  }
  return queries;
}

/// A word no corpus window holds ("qz" + base-26 digits of `id`).
std::string CanaryWord(std::size_t id) {
  std::string word = "qz";
  do {
    word.push_back(static_cast<char>('a' + id % 26));
    id /= 26;
  } while (id > 0);
  return word;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out.push_back(' ');
    out += w;
  }
  return out;
}

std::vector<Hit> ToHits(const std::vector<rtsi::service::SearchResult>& in) {
  std::vector<Hit> out;
  out.reserve(in.size());
  for (const auto& r : in) {
    out.push_back({r.stream, r.score, r.text_score, r.sound_score});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operation counts and check failures; each thread keeps its own and
// merges it when its phase ends.

struct Tally {
  OpCount search;
  OpCount ingest;
  OpCount probe;
  bool correct = true;
  std::vector<std::string> errors;

  void Error(const std::string& what) {
    correct = false;
    if (errors.size() < kMaxErrors) errors.push_back(what);
  }
  void Merge(const Tally& o) {
    search.attempted += o.search.attempted;
    search.failed += o.search.failed;
    ingest.attempted += o.ingest.attempted;
    ingest.failed += o.ingest.failed;
    probe.attempted += o.probe.attempted;
    probe.failed += o.probe.failed;
    correct = correct && o.correct;
    for (const std::string& e : o.errors) {
      if (errors.size() < kMaxErrors) errors.push_back(e);
    }
  }
};

/// Validates one /search reply. Returns false when the operation failed
/// (a non-200); a 200 whose body breaks a property is a correctness error.
bool CheckSearchReply(const HttpReply& reply, const std::string& query,
                      double text_weight, Tally& tally,
                      std::vector<Hit>* hits = nullptr) {
  if (reply.status != 200) return false;
  std::vector<Hit> parsed;
  if (!ParseResults(reply.body, parsed)) {
    tally.Error("unparsable /search body for '" + query + "'");
    return true;
  }
  const std::string bad = CheckWellFormed(parsed, kTopK, text_weight,
                                          kPrintEps);
  if (!bad.empty()) tally.Error("/search '" + query + "': " + bad);
  if (hits != nullptr) *hits = std::move(parsed);
  return true;
}

std::string SearchTarget(const std::string& query) {
  return "/search?q=" + UrlEncode(query) + "&k=" + std::to_string(kTopK);
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, self time = span minus its children.

class Tracer {
 public:
  int Begin(const char* name) {
    spans_.push_back({name, current_, NowUs(), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  /// Ends span `id`; returns its duration in microseconds.
  double End(int id) {
    Span& span = spans_[id];
    span.end_us = NowUs();
    current_ = span.parent;
    return span.end_us - span.start_us;
  }
  std::size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span: name, parent index, start offset,
  /// duration and self time (µs).
  bool Write(const std::string& path) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
    }
    std::ofstream out(path);
    if (!out) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end_us - s.start_us;
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"start_us\":"
          << s.start_us - t0 << ",\"dur_us\":" << dur
          << ",\"self_us\":" << dur - child_us[i] << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start_us;
    double end_us;
  };
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Samples of the ingest path, from timing each layer's public call.
struct IngestSamples {
  std::vector<double> window_us;   // The three calls IngestWindow makes.
  std::vector<double> process_us;  // IngestionPipeline::ProcessWindow.
  std::vector<double> text_insert_us;
  std::vector<double> sound_insert_us;
  std::uint64_t postings_inserted = 0;
};

/// Samples of the query path.
struct QuerySamples {
  std::vector<double> search_us;  // SearchService::SearchKeywords.
  std::vector<double> process_us;
  std::vector<double> text_us;
  std::vector<double> sound_us;
  std::vector<double> fuse_us;     // search − (process + text + sound).
  std::vector<double> scatter_us;  // set queries − per-shard queries.
  std::vector<double> root_self_us;
  rtsi::core::QueryStats stats[2];
  std::uint64_t results[2] = {0, 0};
  std::uint64_t queries = 0;
};

void AddStats(rtsi::core::QueryStats& into,
              const rtsi::core::QueryStats& s) {
  into.components_visited += s.components_visited;
  into.components_pruned += s.components_pruned;
  into.components_skipped += s.components_skipped;
  into.postings_scanned += s.postings_scanned;
  into.candidates_scored += s.candidates_scored;
  into.candidates_screened += s.candidates_screened;
}

// ---------------------------------------------------------------------------
// The embedded services and everything a phase needs.

/// One SearchService with its clock, behind its own AsyncHttpServer.
struct Instance {
  std::unique_ptr<rtsi::SimulatedClock> clock;
  std::unique_ptr<rtsi::service::SearchService> service;
  std::unique_ptr<rtsi::server::HttpServerBase> http;

  int port() const { return http->port(); }
};

/// Two services hold the same preloaded archive. `search` answers the
/// search phases and its index stays as loaded. `ingest` takes the ingest
/// phases and the freshness probes. Searches draw from the service RNG
/// that ingestion's ASR simulation also draws from, and their number
/// depends on the machine's speed; kept apart, the two kinds of phase can
/// alternate while the ingest service still sees the same requests in the
/// same order in every run.
struct Env {
  Plan plan;
  rtsi::workload::SyntheticCorpus corpus;       // The archive.
  rtsi::workload::SyntheticCorpus live_corpus;  // Live cohort windows.
  rtsi::service::SearchServiceConfig service_config;
  Instance search;
  Instance ingest;
  std::unique_ptr<ReferenceIndex> reference;
  std::vector<PreloadOp> preload;
  std::vector<std::string> queries;
  std::vector<std::string> audit;
  std::size_t next_canary = 0;
  std::size_t live_round = 0;  // Next window index of the live cohort.
  Tracer tracer;

  explicit Env(const Plan& p)
      : plan(p),
        corpus(CorpusFor(kArchiveSeed)),
        live_corpus(CorpusFor(kLiveSeed)),
        service_config(ServiceConfigFor(p)) {}

  double text_weight() const { return service_config.text_weight; }

  void NewService(Instance& instance) const {
    instance.service.reset();
    instance.clock = std::make_unique<rtsi::SimulatedClock>(kClockStart);
    instance.service = std::make_unique<rtsi::service::SearchService>(
        service_config, instance.clock.get());
  }

  StreamId LiveStream(std::size_t i) const {
    return plan.archive_streams + i % plan.live_cohort;
  }
};

/// The untraced preload through SearchService's public API; `seconds`
/// receives its wall time.
rtsi::Status Preload(const Env& env, Instance& into, double& seconds) {
  rtsi::service::SearchService& service = *into.service;
  const double start = NowUs();
  for (const PreloadOp& op : env.preload) {
    switch (op.kind) {
      case PreloadOp::kPopularity:
        service.UpdatePopularity(op.stream, op.popularity);
        break;
      case PreloadOp::kWindow: {
        const rtsi::Status status = service.IngestWindow(
            op.stream, env.corpus.WindowWords(op.stream, op.window), op.live);
        if (!status.ok()) return status;
        break;
      }
      case PreloadOp::kFinish:
        service.FinishStream(op.stream);
        break;
      case PreloadOp::kTick:
        into.clock->Advance(kWindowMicros);
        break;
    }
  }
  seconds = (NowUs() - start) / 1e6;
  return rtsi::Status::Ok();
}

/// One window through the layers IngestWindow calls, each timed from
/// outside: ProcessWindow on the service's pipeline, then each modality's
/// IndexShardSet::InsertWindow. `rng` stands in for the service RNG.
void TracedWindow(Env& env, Instance& into, rtsi::Rng& rng, StreamId stream,
                  const std::vector<std::string>& words, bool live,
                  IngestSamples& samples) {
  rtsi::service::SearchService& service = *into.service;
  Tracer& tracer = env.tracer;
  const int root = tracer.Begin("service.ingest_window");
  int span = tracer.Begin("ingestion.process_window");
  const rtsi::service::WindowArtifacts artifacts =
      service.pipeline().ProcessWindow(words, rng);
  samples.process_us.push_back(tracer.End(span));
  const Timestamp now = into.clock->Now();
  span = tracer.Begin("shard.text_insert");
  service.text_shards().InsertWindow(stream, now, artifacts.text_terms, live);
  samples.text_insert_us.push_back(tracer.End(span));
  span = tracer.Begin("shard.sound_insert");
  service.sound_shards().InsertWindow(stream, now, artifacts.sound_terms,
                                      live);
  samples.sound_insert_us.push_back(tracer.End(span));
  samples.window_us.push_back(tracer.End(root));
  samples.postings_inserted +=
      artifacts.text_terms.size() + artifacts.sound_terms.size();
}

/// The traced preload: the same schedule, each window through
/// TracedWindow with an RNG seeded like the service's, so the index ends
/// up identical to the untraced preload's.
void TracedPreload(Env& env, Instance& into, IngestSamples& samples) {
  rtsi::Rng rng(env.service_config.seed);
  for (const PreloadOp& op : env.preload) {
    switch (op.kind) {
      case PreloadOp::kPopularity:
        into.service->UpdatePopularity(op.stream, op.popularity);
        break;
      case PreloadOp::kWindow:
        TracedWindow(env, into, rng, op.stream,
                     env.corpus.WindowWords(op.stream, op.window), op.live,
                     samples);
        break;
      case PreloadOp::kFinish:
        into.service->FinishStream(op.stream);
        break;
      case PreloadOp::kTick:
        into.clock->Advance(kWindowMicros);
        break;
    }
  }
}

/// Replays the preload schedule into the brute-force reference.
void BuildReference(Env& env) {
  env.reference = std::make_unique<ReferenceIndex>(
      env.service_config.index, env.service_config.ingestion,
      env.text_weight(), env.service_config.seed);
  Timestamp now = kClockStart;
  for (const PreloadOp& op : env.preload) {
    switch (op.kind) {
      case PreloadOp::kPopularity:
        env.reference->AddPopularity(op.stream, op.popularity);
        break;
      case PreloadOp::kWindow:
        env.reference->AddWindow(
            op.stream, now, env.corpus.WindowWords(op.stream, op.window));
        break;
      case PreloadOp::kFinish:
        break;
      case PreloadOp::kTick:
        now += kWindowMicros;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// HTTP phases.

struct OpenLoopLog {
  std::vector<double> latency_us;  // Response time minus due time.
  std::vector<double> late_us;     // Send time minus due time.

  void Append(const OpenLoopLog& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
  }
};

/// Open-loop /search on the search service: request i is due at
/// start + i/rate; thread t of `threads` sends requests t, t+threads, ...
/// on its own connection, for `seconds` of schedule. Latency is measured
/// from each request's due time.
void OpenLoop(Env& env, double rate, int threads, double seconds,
              std::size_t query_offset, OpenLoopLog& log, Tally& tally) {
  std::vector<OpenLoopLog> logs(threads);
  std::vector<Tally> tallies(threads);
  std::vector<std::thread> workers;
  const SteadyClock::time_point start =
      SteadyClock::now() + std::chrono::milliseconds(5);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // A 1 ns timer slack, so sleeping to the due time does not
      // overshoot by the default 50 µs.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      HttpClient client(env.search.port());
      for (std::size_t i = t;; i += threads) {
        const double due_s = static_cast<double>(i) / rate;
        if (due_s >= seconds) break;
        const auto due = start + std::chrono::duration_cast<
                                     SteadyClock::duration>(
                                     std::chrono::duration<double>(due_s));
        // No spinning: the generator shares the servers' CPU.
        std::this_thread::sleep_until(due);
        const std::string& query =
            env.queries[(query_offset + i) % env.queries.size()];
        const auto sent = SteadyClock::now();
        const HttpReply reply = client.Request("GET", SearchTarget(query));
        const auto done = SteadyClock::now();
        ++tallies[t].search.attempted;
        if (!CheckSearchReply(reply, query, env.text_weight(), tallies[t])) {
          ++tallies[t].search.failed;
          continue;
        }
        logs[t].latency_us.push_back(
            std::chrono::duration<double, std::micro>(done - due).count());
        logs[t].late_us.push_back(
            std::chrono::duration<double, std::micro>(sent - due).count());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < threads; ++t) {
    log.Append(logs[t]);
    tally.Merge(tallies[t]);
  }
}

struct ClosedLoopResult {
  std::size_t completed = 0;   // Requests answered with a 200.
  double seconds = 0.0;        // Wall time of the phase.
  double server_cpu_us = 0.0;  // The servers' CPU time over the phase.
};

/// Closed-loop /search at saturation on the search service: `threads`
/// connections, each sending its next request as soon as the previous
/// answer is in, for `seconds`. The servers' CPU time is the process's
/// minus the load threads' own.
ClosedLoopResult ClosedLoop(Env& env, int threads, double seconds,
                            std::size_t query_offset, Tally& tally) {
  std::vector<Tally> tallies(threads);
  std::vector<std::size_t> completed(threads, 0);
  std::vector<double> client_cpu_us(threads, 0.0);
  std::vector<std::thread> workers;
  const double cpu_start = ProcessCpuUs();
  const double start = NowUs();
  const double deadline = start + seconds * 1e6;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const double thread_cpu_start = ThreadCpuUs();
      HttpClient client(env.search.port());
      for (std::size_t i = t; NowUs() < deadline; i += threads) {
        const std::string& query =
            env.queries[(query_offset + i) % env.queries.size()];
        const HttpReply reply = client.Request("GET", SearchTarget(query));
        ++tallies[t].search.attempted;
        if (!CheckSearchReply(reply, query, env.text_weight(), tallies[t])) {
          ++tallies[t].search.failed;
        } else {
          ++completed[t];
        }
      }
      client_cpu_us[t] = ThreadCpuUs() - thread_cpu_start;
    });
  }
  for (std::thread& w : workers) w.join();
  ClosedLoopResult result;
  result.seconds = (NowUs() - start) / 1e6;
  result.server_cpu_us = ProcessCpuUs() - cpu_start;
  for (int t = 0; t < threads; ++t) {
    result.server_cpu_us -= client_cpu_us[t];
    result.completed += completed[t];
    tally.Merge(tallies[t]);
  }
  return result;
}

struct IngestLog {
  std::size_t windows = 0;
  double seconds = 0.0;        // Wall time from first send to last ack.
  double server_cpu_us = 0.0;  // The servers' CPU time over the phase.
};

/// POSTs `windows` windows of the live cohort to the ingest service on one
/// connection (round-robin over the cohort's streams, one round = 60
/// simulated seconds), each sent when the previous one is acknowledged.
void IngestWindows(Env& env, std::size_t windows, IngestLog& log,
                   Tally& tally) {
  const std::size_t cohort = env.plan.live_cohort;
  HttpClient client(env.ingest.port());
  const double cpu_start = ProcessCpuUs();
  const double thread_cpu_start = ThreadCpuUs();
  const double start = NowUs();
  for (std::size_t j = 0; j < windows; ++j) {
    const std::size_t w = env.live_round + j;
    if (w > 0 && w % cohort == 0) env.ingest.clock->Advance(kWindowMicros);
    const StreamId stream = env.LiveStream(w);
    const std::vector<std::string> words =
        env.live_corpus.WindowWords(stream, static_cast<int>(w / cohort));
    const HttpReply reply = client.Request(
        "POST", "/ingest",
        std::to_string(stream) + " " + JoinWords(words) + "\n");
    ++tally.ingest.attempted;
    if (reply.status != 200) ++tally.ingest.failed;
  }
  log.windows += windows;
  log.seconds += (NowUs() - start) / 1e6;
  log.server_cpu_us +=
      ProcessCpuUs() - cpu_start - (ThreadCpuUs() - thread_cpu_start);
  env.live_round += windows;
}

/// Freshness probes on the ingest service, one after another: each POSTs
/// a canary window (a whole window of its stream plus kCanaryRepeats
/// copies of a word no other window holds, so the ASR error model cannot
/// drop all of them), then searches for that word until an answer holds
/// the stream (up to kProbeSearchAttempts searches). Freshness is the time
/// from sending the canary to that answer; a stream that never shows
/// fails the probe.
void Probes(Env& env, std::size_t probes, std::vector<double>& fresh_ms,
            Tally& tally) {
  HttpClient ingest_client(env.ingest.port());
  HttpClient search_client(env.ingest.port());
  for (std::size_t i = 0; i < probes; ++i) {
    const std::size_t id = env.next_canary++;
    const StreamId stream = env.LiveStream(id);
    const std::string canary = CanaryWord(id);
    std::vector<std::string> words =
        env.live_corpus.WindowWords(stream, static_cast<int>(1'000'000 + id));
    for (int r = 0; r < kCanaryRepeats; ++r) words.push_back(canary);
    ++tally.probe.attempted;
    const double sent = NowUs();
    const HttpReply posted = ingest_client.Request(
        "POST", "/ingest",
        std::to_string(stream) + " " + JoinWords(words) + "\n");
    bool found = false;
    if (posted.status == 200) {
      for (int a = 0; a < kProbeSearchAttempts && !found; ++a) {
        std::vector<Hit> hits;
        const HttpReply reply =
            search_client.Request("GET", SearchTarget(canary));
        if (!CheckSearchReply(reply, canary, env.text_weight(), tally,
                              &hits)) {
          continue;
        }
        for (const Hit& h : hits) found = found || h.stream == stream;
      }
    }
    if (found) {
      fresh_ms.push_back((NowUs() - sent) / 1e3);
    } else {
      ++tally.probe.failed;
    }
  }
}

/// Everything the gated phases measured.
struct RoundsLog {
  std::vector<double> search_p50_us;  // Open-loop p50, per round.
  std::vector<double> search_rps;     // Closed-loop throughput, per round.
  OpenLoopLog open;                   // Every open-loop request.
  ClosedLoopResult closed;            // Summed over rounds.
  IngestLog ingest;                   // Summed over rounds.
  std::vector<double> fresh_ms;       // Every probe that found its stream.
};

/// The gated phases, each with nothing else running. The host's speed
/// drifts over tens of seconds, so a figure taken in one stretch would
/// carry that stretch's speed; instead each round runs a share of every
/// phase in turn: open-loop and closed-loop /search on the search service,
/// then windows and freshness probes on the ingest service.
void RunRounds(Env& env, double seconds, RoundsLog& log, Tally& tally) {
  const Plan& plan = env.plan;
  const double open_s = plan.open_share * seconds / plan.rounds;
  const double closed_s = plan.closed_share * seconds / plan.rounds;
  const auto open_queries =
      static_cast<std::size_t>(std::ceil(plan.open_rate * open_s));
  for (int r = 0; r < plan.rounds; ++r) {
    OpenLoopLog open;
    OpenLoop(env, plan.open_rate, plan.open_threads, open_s,
             r * open_queries, open, tally);
    log.search_p50_us.push_back(NearestRank(open.latency_us, 0.50));
    log.open.Append(open);

    const ClosedLoopResult closed =
        ClosedLoop(env, plan.closed_threads, closed_s,
                   env.queries.size() / 2 + r * 4000, tally);
    log.search_rps.push_back(static_cast<double>(closed.completed) /
                             closed.seconds);
    log.closed.completed += closed.completed;
    log.closed.seconds += closed.seconds;
    log.closed.server_cpu_us += closed.server_cpu_us;

    IngestWindows(env, plan.ingest_windows / plan.rounds, log.ingest, tally);
    Probes(env, plan.probes / plan.rounds, log.fresh_ms, tally);
  }
}

/// Audit against the brute-force reference on the search service: each
/// audit query over HTTP (printed precision) and in-process through
/// SearchKeywords (full doubles, 1e-9).
void ReferenceAudit(Env& env, Tally& tally) {
  HttpClient client(env.search.port());
  const Timestamp now = env.search.clock->Now();
  for (const std::string& query : env.audit) {
    const ReferenceAnswer want = env.reference->Search(query, kTopK, now);
    std::vector<Hit> hits;
    const HttpReply reply = client.Request("GET", SearchTarget(query));
    ++tally.search.attempted;
    if (!CheckSearchReply(reply, query, env.text_weight(), tally, &hits)) {
      ++tally.search.failed;
    } else {
      const std::string bad = CheckAgainstReference(hits, want, kPrintEps);
      if (!bad.empty()) tally.Error("audit /search '" + query + "': " + bad);
    }
    const std::string bad = CheckAgainstReference(
        ToHits(env.search.service->SearchKeywords(query, kTopK)), want,
        kExactEps);
    if (!bad.empty()) tally.Error("audit SearchKeywords '" + query + "': " + bad);
  }
}

void SetUseBound(rtsi::shard::IndexShardSet& set, bool on) {
  for (int s = 0; s < set.num_shards(); ++s) set.shard_index(s).SetUseBound(on);
}

/// Once merges have drained (no server running): every audit query's
/// per-modality top-2k with pruning on must equal the full walk.
void PrunedVsFullAudit(Env& env, Instance& instance, Tally& tally) {
  rtsi::service::SearchService& service = *instance.service;
  rtsi::shard::IndexShardSet* sets[2] = {&service.text_shards(),
                                         &service.sound_shards()};
  for (auto* set : sets) set->WaitForMerges();
  const Timestamp now = instance.clock->Now();
  rtsi::Rng rng(1);
  for (const std::string& query : env.audit) {
    const rtsi::service::ProcessedQuery processed =
        service.query_processor().ProcessKeywords(query, rng);
    const std::vector<rtsi::TermId>* terms[2] = {&processed.text_terms,
                                                 &processed.sound_terms};
    for (int m = 0; m < 2; ++m) {
      const auto pruned = sets[m]->Query(*terms[m], 2 * kTopK, now);
      SetUseBound(*sets[m], false);
      const auto full = sets[m]->Query(*terms[m], 2 * kTopK, now);
      SetUseBound(*sets[m], true);
      bool same = pruned.size() == full.size();
      for (std::size_t i = 0; same && i < full.size(); ++i) {
        same = pruned[i].stream == full[i].stream &&
               std::fabs(pruned[i].score - full[i].score) <= 1e-12;
      }
      if (!same) {
        tally.Error(std::string(m == 0 ? "text" : "sound") +
                    " pruned walk differs from the full walk for '" + query +
                    "'");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// In-process traced replays.

/// The server's share of a /search: per query, the HTTP round trip on one
/// connection minus the same query through SearchKeywords in-process, run
/// back to back (order alternated per query, so neither side always finds
/// the postings in cache). Returns the median difference.
double ServerOverhead(Env& env, std::size_t queries, Tally& tally) {
  HttpClient client(env.search.port());
  std::vector<double> diff_us;
  for (std::size_t i = 0; i < queries; ++i) {
    const std::string& query = env.queries[i % env.queries.size()];
    auto in_process = [&] {
      const double start = NowUs();
      env.search.service->SearchKeywords(query, kTopK);
      return NowUs() - start;
    };
    const double first = i % 2 == 0 ? in_process() : 0.0;
    const double start = NowUs();
    const HttpReply reply = client.Request("GET", SearchTarget(query));
    const double http = NowUs() - start;
    const double local = i % 2 == 0 ? first : in_process();
    ++tally.search.attempted;
    if (!CheckSearchReply(reply, query, env.text_weight(), tally)) {
      ++tally.search.failed;
      continue;
    }
    diff_us.push_back(http - local);
  }
  return Median(diff_us);
}

/// Replays one query through the layers SearchKeywords calls, each timed
/// from outside, plus SearchKeywords itself for the fuse remainder and,
/// when sharded, each shard's RtsiIndex::Query for the scatter overhead.
void TracedQuery(Env& env, const std::string& query, bool search_first,
                 QuerySamples& samples) {
  rtsi::service::SearchService& service = *env.search.service;
  Tracer& tracer = env.tracer;
  const Timestamp now = env.search.clock->Now();
  const int fetch = 2 * kTopK;
  // Whichever of SearchKeywords and its decomposition runs second finds
  // the query's postings in cache; alternating the order per query keeps
  // that warm-up out of the fuse remainder's median.
  auto run_search = [&] {
    const int id = tracer.Begin("service.search");
    service.SearchKeywords(query, kTopK);
    return tracer.End(id);
  };
  const double search = search_first ? run_search() : 0.0;

  int span = -1;
  rtsi::Rng rng(1);
  const int root = tracer.Begin("query");
  span = tracer.Begin("service.process_keywords");
  const rtsi::service::ProcessedQuery processed =
      service.query_processor().ProcessKeywords(query, rng);
  const double process = tracer.End(span);
  rtsi::core::QueryStats stats[2];
  span = tracer.Begin("shard.text_query");
  const auto text =
      service.text_shards().Query(processed.text_terms, fetch, now, &stats[0]);
  const double text_us = tracer.End(span);
  span = tracer.Begin("shard.sound_query");
  const auto sound = service.sound_shards().Query(processed.sound_terms,
                                                  fetch, now, &stats[1]);
  const double sound_us = tracer.End(span);
  const double root_us = tracer.End(root);

  samples.search_us.push_back(search_first ? search : run_search());
  samples.process_us.push_back(process);
  samples.text_us.push_back(text_us);
  samples.sound_us.push_back(sound_us);
  samples.fuse_us.push_back(samples.search_us.back() - process - text_us -
                            sound_us);
  samples.root_self_us.push_back(root_us - process - text_us - sound_us);
  AddStats(samples.stats[0], stats[0]);
  AddStats(samples.stats[1], stats[1]);
  samples.results[0] += text.size();
  samples.results[1] += sound.size();
  ++samples.queries;

  double per_shard = 0.0;
  rtsi::shard::IndexShardSet* sets[2] = {&service.text_shards(),
                                         &service.sound_shards()};
  const std::vector<rtsi::TermId>* terms[2] = {&processed.text_terms,
                                               &processed.sound_terms};
  for (int m = 0; m < 2; ++m) {
    for (int s = 0; s < sets[m]->num_shards(); ++s) {
      span = tracer.Begin(m == 0 ? "index.text.shard_query"
                                 : "index.sound.shard_query");
      sets[m]->shard_index(s).Query(*terms[m], fetch, now);
      per_shard += tracer.End(span);
    }
  }
  samples.scatter_us.push_back(text_us + sound_us - per_shard);
}

/// LSM counters summed over both modalities and every shard.
struct LsmTotals {
  std::uint64_t merges = 0;
  double merge_micros = 0.0;
  std::uint64_t postings_in = 0;
  std::uint64_t runs = 0;
  std::uint64_t levels = 0;
};

LsmTotals ReadLsm(rtsi::service::SearchService& service) {
  LsmTotals totals;
  for (auto* set : {&service.text_shards(), &service.sound_shards()}) {
    for (int s = 0; s < set->num_shards(); ++s) {
      const rtsi::core::RtsiIndex& index = set->shard_index(s);
      const rtsi::lsm::MergeStats merge = index.GetMergeStats();
      totals.merges += merge.merges;
      totals.merge_micros += merge.total_micros;
      totals.postings_in += merge.postings_in;
      totals.runs += index.tree().num_runs();
      totals.levels = std::max<std::uint64_t>(totals.levels,
                                              index.tree().num_levels());
    }
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Output helpers.

void Emit(Outcome& out, const char* name, const char* unit, double value) {
  out.metrics.push_back({name, unit, value});
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream s;
  s.precision(10);
  s << v;
  return s.str();
}

void AppendOpCounts(std::ostringstream& meta, const Outcome& out) {
  auto op = [&meta](const char* name, const OpCount& c, bool comma) {
    meta << "\"" << name << "\":{\"attempted\":" << c.attempted
         << ",\"failed\":" << c.failed << "}" << (comma ? "," : "");
  };
  meta << "\"operations\":{";
  op("search", out.search, true);
  op("ingest", out.ingest, true);
  op("probe", out.probe, false);
  meta << "}";
}

}  // namespace

bool RunWorkload(const Options& options, Outcome& out, std::string& error) {
  Plan plan;
  if (!MakePlan(options, plan)) {
    error = "unknown workload '" + options.workload + "'";
    return false;
  }
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    error = "cannot pin the benchmark to one CPU";
    return false;
  }
  Env env(plan);
  env.preload = PreloadSchedule(env.corpus, plan.archive_streams);
  env.queries = QuerySequence(DeriveSeed(options.seed, 3), kLoadQueries);
  env.audit = QuerySequence(DeriveSeed(options.seed, 4), plan.audit_queries);

  // Set-up: the archive preload, repeated and reported as a median
  // (untraced); the last two preloads become the search and the ingest
  // services. Traced, the search service's preload goes through the
  // traced layers instead.
  std::vector<double> setup_s;
  IngestSamples ingest;
  const int preloads = options.trace ? 1 : kSetupRuns;
  for (int rep = 0; rep < preloads; ++rep) {
    Instance& into = rep + 1 == preloads ? env.ingest : env.search;
    env.NewService(into);
    double seconds = 0.0;
    const rtsi::Status loaded = Preload(env, into, seconds);
    if (!loaded.ok()) {
      error = "preload failed: " + loaded.message();
      return false;
    }
    setup_s.push_back(seconds);
  }
  if (options.trace) {
    env.NewService(env.search);
    TracedPreload(env, env.search, ingest);
  }
  const LsmTotals preload_lsm = ReadLsm(*env.search.service);
  BuildReference(env);

  rtsi::server::ServerConfig server_config;
  server_config.async = true;
  server_config.workers = 2;
  for (Instance* instance : {&env.search, &env.ingest}) {
    instance->http = rtsi::server::MakeHttpServer(server_config);
    rtsi::server::RegisterSearchRoutes(*instance->http, *instance->service,
                                       *instance->clock);
    const rtsi::Status started = instance->http->Start(0);
    if (!started.ok()) {
      error = "server failed to start: " + started.message();
      return false;
    }
  }

  Tally tally;
  // Warm-up: closed-loop traffic whose figures are not reported.
  ClosedLoop(env, plan.closed_threads, 0.05 * options.seconds, 0, tally);
  ReferenceAudit(env, tally);
  RoundsLog rounds;
  RunRounds(env, options.seconds, rounds, tally);
  rtsi::server::ServerQueueStats queue = env.search.http->QueueStats();
  const rtsi::server::ServerQueueStats ingest_queue =
      env.ingest.http->QueueStats();
  queue.shed += ingest_queue.shed;
  queue.batches += ingest_queue.batches;
  queue.batched_requests += ingest_queue.batched_requests;
  const double server_overhead =
      options.trace ? ServerOverhead(env, Scaled(1000, options.scale, 20), tally)
                    : 0.0;
  for (Instance* instance : {&env.search, &env.ingest}) instance->http->Stop();
  PrunedVsFullAudit(env, env.search, tally);
  PrunedVsFullAudit(env, env.ingest, tally);
  out.search = tally.search;
  out.ingest = tally.ingest;
  out.probe = tally.probe;
  out.correct = tally.correct;
  out.errors = tally.errors;

  const auto archive = env.search.service->PinIndices();
  const auto grown = env.ingest.service->PinIndices();
  const double index_bytes = static_cast<double>(grown->text->MemoryBytes() +
                                                 grown->sound->MemoryBytes());

  if (!options.trace) {
    Emit(out, "setup_s", "s", Median(setup_s));
    Emit(out, "index_mb", "MB", index_bytes / 1e6);
    Emit(out, "search_p50_us", "us", Median(rounds.search_p50_us));
    Emit(out, "search_peak_rps", "req/s", Median(rounds.search_rps));
    Emit(out, "ingest_windows_per_s", "windows/s",
         static_cast<double>(rounds.ingest.windows) / rounds.ingest.seconds);
    Emit(out, "fresh_p50_ms", "ms", Median(rounds.fresh_ms));
  } else {
    // In-process replays of the load's query sequence on the search
    // service; the ingest and LSM figures come from the traced preload.
    QuerySamples query;
    const std::size_t replay_queries = Scaled(1500, options.scale, 20);
    for (std::size_t i = 0; i < replay_queries; ++i) {
      TracedQuery(env, env.queries[i % env.queries.size()], i % 2 == 0,
                  query);
    }

    double stall_us = 0.0;
    for (const auto* v : {&ingest.text_insert_us, &ingest.sound_insert_us}) {
      for (const double x : *v) stall_us = std::max(stall_us, x);
    }
    const double service_p50 = NearestRank(query.search_us, 0.50);
    const double process = NearestRank(query.process_us, 0.50);
    const double text_q = NearestRank(query.text_us, 0.50);
    const double sound_q = NearestRank(query.sound_us, 0.50);
    const double fuse = NearestRank(query.fuse_us, 0.50);

    Emit(out, "server.overhead_us", "us", server_overhead);
    Emit(out, "server.batch_size", "req/batch",
         queue.batches == 0 ? 0.0
                            : static_cast<double>(queue.batched_requests) /
                                  static_cast<double>(queue.batches));
    Emit(out, "server.shed", "count", static_cast<double>(queue.shed));
    Emit(out, "service.search_p50_us", "us", service_p50);
    Emit(out, "service.search_p99_us", "us", NearestRank(query.search_us, 0.99));
    Emit(out, "service.process_keywords_us", "us", process);
    Emit(out, "service.fuse_us", "us", fuse);
    Emit(out, "service.ingest_window_p50_us", "us",
         NearestRank(ingest.window_us, 0.50));
    Emit(out, "service.ingest_window_p99_us", "us",
         NearestRank(ingest.window_us, 0.99));
    Emit(out, "ingestion.process_window_us", "us",
         NearestRank(ingest.process_us, 0.50));
    Emit(out, "shard.text_query_us", "us", text_q);
    Emit(out, "shard.sound_query_us", "us", sound_q);
    Emit(out, "shard.scatter_overhead_us", "us",
         NearestRank(query.scatter_us, 0.50));
    Emit(out, "shard.text_insert_p50_us", "us",
         NearestRank(ingest.text_insert_us, 0.50));
    Emit(out, "shard.text_insert_p99_us", "us",
         NearestRank(ingest.text_insert_us, 0.99));
    Emit(out, "shard.sound_insert_p50_us", "us",
         NearestRank(ingest.sound_insert_us, 0.50));
    Emit(out, "shard.sound_insert_p99_us", "us",
         NearestRank(ingest.sound_insert_us, 0.99));
    const double nq = static_cast<double>(std::max<std::uint64_t>(1, query.queries));
    static const char* kModality[2] = {"text", "sound"};
    for (int m = 0; m < 2; ++m) {
      const rtsi::core::QueryStats& s = query.stats[m];
      const std::string p = std::string("exec.") + kModality[m] + ".";
      auto per_query = [&](const char* field, double v) {
        out.metrics.push_back({p + field, "count", v / nq});
      };
      per_query("components_visited", static_cast<double>(s.components_visited));
      per_query("components_skipped", static_cast<double>(s.components_skipped));
      per_query("components_pruned", static_cast<double>(s.components_pruned));
      per_query("postings_scanned", static_cast<double>(s.postings_scanned));
      per_query("candidates_scored", static_cast<double>(s.candidates_scored));
      per_query("candidates_screened",
                static_cast<double>(s.candidates_screened));
      out.metrics.push_back(
          {p + "scored_per_result", "ratio",
           static_cast<double>(s.candidates_scored) /
               static_cast<double>(std::max<std::uint64_t>(1, query.results[m]))});
    }
    auto postings = [](const rtsi::shard::IndexShardSet& set) {
      std::size_t n = 0;
      for (int s = 0; s < set.num_shards(); ++s) {
        n += set.shard_index(s).tree().total_postings();
      }
      return static_cast<double>(std::max<std::size_t>(1, n));
    };
    std::size_t arena = 0;
    for (const auto* set : {grown->text.get(), grown->sound.get()}) {
      for (int s = 0; s < set->num_shards(); ++s) {
        arena += set->shard_index(s).LiveArenaStats().allocated_bytes;
      }
    }
    Emit(out, "index.text.bytes_per_posting", "B",
         static_cast<double>(archive->text->MemoryBytes()) /
             postings(*archive->text));
    Emit(out, "index.sound.bytes_per_posting", "B",
         static_cast<double>(archive->sound->MemoryBytes()) /
             postings(*archive->sound));
    Emit(out, "index.live_arena_bytes", "B", static_cast<double>(arena));
    Emit(out, "lsm.merges", "count", static_cast<double>(preload_lsm.merges));
    Emit(out, "lsm.merge_s", "s", preload_lsm.merge_micros / 1e6);
    Emit(out, "lsm.write_amp", "ratio",
         static_cast<double>(preload_lsm.postings_in) /
             static_cast<double>(
                 std::max<std::uint64_t>(1, ingest.postings_inserted)));
    Emit(out, "lsm.runs", "count", static_cast<double>(preload_lsm.runs));
    Emit(out, "lsm.levels", "count", static_cast<double>(preload_lsm.levels));
    Emit(out, "lsm.insert_stall_max_ms", "ms", stall_us / 1e3);
    const double tracing = NearestRank(query.root_self_us, 0.50);
    Emit(out, "trace.overhead_us", "us", tracing);
    // The in-process layers along the blocking path, against the
    // in-process SearchKeywords they make up (server.overhead_us is, by
    // its definition, the HTTP remainder on top).
    Emit(out, "trace.unaccounted_us", "us",
         service_p50 - (process + text_q + sound_q + fuse));
    if (!options.trace_out.empty() && !env.tracer.Write(options.trace_out)) {
      error = "cannot write spans to " + options.trace_out;
      return false;
    }
  }

  std::ostringstream meta;
  auto array = [&meta](const char* name, const std::vector<double>& v) {
    meta << ",\"" << name << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      meta << (i ? "," : "") << JsonNumber(v[i]);
    }
    meta << "]";
  };
  const auto per = [](double total, std::size_t n) {
    return total / static_cast<double>(std::max<std::size_t>(1, n));
  };
  meta << "{\"workload\":\"" << options.workload << "\",\"seed\":"
       << options.seed << ",\"seconds\":" << JsonNumber(options.seconds)
       << ",\"trace\":" << (options.trace ? 1 : 0)
       << ",\"scale\":" << JsonNumber(options.scale)
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"pinned_cpu\":" << cpu
       << ",\"build_type\":\"" << E2E_BUILD_TYPE << "\""
       << ",\"shards\":" << plan.shards
       << ",\"archive_streams\":" << plan.archive_streams
       << ",\"rounds\":" << plan.rounds;
  array("setup_runs_s", setup_s);
  meta << ",\"open_loop\":{\"offered_rps\":" << JsonNumber(plan.open_rate)
       << ",\"samples\":" << rounds.open.latency_us.size()
       << ",\"generator_late_p50_us\":"
       << JsonNumber(NearestRank(rounds.open.late_us, 0.50))
       << ",\"generator_late_p99_us\":"
       << JsonNumber(NearestRank(rounds.open.late_us, 0.99))
       << ",\"generator_late_max_us\":"
       << JsonNumber(NearestRank(rounds.open.late_us, 1.0))
       << ",\"search_p99_us\":"
       << JsonNumber(NearestRank(rounds.open.latency_us, 0.99));
  array("round_p50_us", rounds.search_p50_us);
  meta << "},\"closed_loop\":{\"connections\":" << plan.closed_threads
       << ",\"completed\":" << rounds.closed.completed
       << ",\"server_cpu_us_per_search\":"
       << JsonNumber(per(rounds.closed.server_cpu_us, rounds.closed.completed));
  array("round_rps", rounds.search_rps);
  meta << "},\"ingest\":{\"windows\":" << rounds.ingest.windows
       << ",\"seconds\":" << JsonNumber(rounds.ingest.seconds)
       << ",\"server_cpu_us_per_window\":"
       << JsonNumber(per(rounds.ingest.server_cpu_us, rounds.ingest.windows))
       << "},\"probes\":{\"found\":" << rounds.fresh_ms.size()
       << ",\"fresh_p99_ms\":"
       << JsonNumber(NearestRank(rounds.fresh_ms, 0.99))
       << "},\"server\":{\"shed\":" << queue.shed
       << ",\"batches\":" << queue.batches
       << ",\"batched_requests\":" << queue.batched_requests << "},";
  if (options.trace) meta << "\"spans\":" << env.tracer.size() << ",";
  AppendOpCounts(meta, out);
  meta << ",\"errors\":[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    std::string e;
    for (const char c : out.errors[i]) {
      if (c == '"' || c == '\\') e.push_back('\\');
      e.push_back(c);
    }
    meta << (i ? "," : "") << "\"" << e << "\"";
  }
  meta << "]}";
  out.meta_json = meta.str();
  return true;
}

}  // namespace e2ebench

// Shared setup for the experiment harness binaries.
//
// Every bench prints the rows/series of one paper table or figure. The
// absolute workload sizes are scaled to a laptop-class container via
// RTSI_BENCH_SCALE (default 1.0 = the sizes hard-coded here; the paper's
// 80k-stream corpus corresponds to roughly scale 10 and needs a
// correspondingly large machine).

#ifndef RTSI_BENCH_BENCH_UTIL_H_
#define RTSI_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/lsii_index.h"
#include "core/rtsi_index.h"
#include "workload/corpus.h"
#include "workload/query_gen.h"

#ifndef RTSI_BUILD_TYPE
#define RTSI_BUILD_TYPE "unknown"
#endif
#ifndef RTSI_GIT_COMMIT
#define RTSI_GIT_COMMIT "unknown"
#endif

namespace rtsi::bench {

inline double Scale() {
  const char* env = std::getenv("RTSI_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

inline std::size_t Scaled(std::size_t base) {
  return static_cast<std::size_t>(base * Scale());
}

/// Corpus statistics mirror the Ximalaya dataset's shape at reduced size.
inline workload::CorpusConfig DefaultCorpusConfig(std::size_t num_streams) {
  workload::CorpusConfig config;
  config.num_streams = num_streams;
  config.vocab_size = 20'000;
  config.zipf_skew = 1.0;
  config.avg_windows_per_stream = 8;
  config.min_windows_per_stream = 3;
  config.words_per_window = 80;
  return config;
}

/// Table III defaults (our documented choices; see DESIGN.md §4).
inline core::RtsiConfig DefaultIndexConfig() {
  core::RtsiConfig config;
  config.lsm.delta = 64 * 1024;
  config.lsm.rho = 4.0;
  config.lsm.compress = false;
  config.lsm.num_l0_shards = 16;
  config.weights.pop = 0.3;
  config.weights.rel = 0.5;
  config.weights.frsh = 0.2;
  config.freshness_tau_seconds = 6.0 * 3600.0;
  config.use_bound = true;
  config.default_k = 10;
  return config;
}

inline std::unique_ptr<core::SearchIndex> MakeIndex(
    const std::string& name, const core::RtsiConfig& config) {
  if (name == "RTSI") {
    return std::make_unique<core::RtsiIndex>(config);
  }
  return std::make_unique<baseline::LsiiIndex>(config);
}

inline workload::QueryGenConfig DefaultQueryConfig(std::size_t vocab_size) {
  workload::QueryGenConfig config;
  config.vocab_size = vocab_size;
  config.zipf_skew = 0.8;
  config.min_terms = 2;
  config.max_terms = 2;
  return config;
}

/// Order-sensitive hash of a top-k answer (stream ids and the exact score
/// bits): equal checksums mean bit-identical answers.
inline std::uint64_t ResultChecksum(
    const std::vector<core::ScoredStream>& results) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  };
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& r : results) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.score));
    std::memcpy(&bits, &r.score, sizeof(bits));
    h = mix(h, r.stream);
    h = mix(h, bits);
  }
  return h;
}

/// Minimal machine-readable output for benches that track a perf
/// trajectory across PRs: a flat JSON object of scalar fields plus one
/// "rows" array of flat objects. Field order is preserved. Every bench
/// emitting JSON writes BENCH_<name>.json through this writer so the
/// files share one schema: {"bench": ..., <meta fields>, "rows": [...]}.
///
/// Every report records the host it ran on: `cpus` (hardware threads),
/// `build_type` and `commit` (`git describe` of the source tree when CMake
/// last configured the build), so a figure is never read without them.
class JsonReport {
 public:
  explicit JsonReport(const std::string& bench_name) {
    Field("bench", bench_name);
    Field("cpus", static_cast<double>(std::thread::hardware_concurrency()));
    Field("build_type", RTSI_BUILD_TYPE);
    Field("commit", RTSI_GIT_COMMIT);
  }

  JsonReport& Field(const std::string& key, const std::string& value) {
    meta_.push_back("\"" + key + "\": \"" + value + "\"");
    return *this;
  }
  JsonReport& Field(const std::string& key, double value) {
    meta_.push_back("\"" + key + "\": " + Number(value));
    return *this;
  }

  class Row {
   public:
    Row& Field(const std::string& key, const std::string& value) {
      fields_.push_back("\"" + key + "\": \"" + value + "\"");
      return *this;
    }
    Row& Field(const std::string& key, double value) {
      fields_.push_back("\"" + key + "\": " + Number(value));
      return *this;
    }

   private:
    friend class JsonReport;
    std::vector<std::string> fields_;
  };

  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes "BENCH_<name>.json"-style output to `path`.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\n";
    for (const std::string& field : meta_) out << "  " << field << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << "    {";
      const auto& fields = rows_[i].fields_;
      for (std::size_t j = 0; j < fields.size(); ++j) {
        out << fields[j] << (j + 1 < fields.size() ? ", " : "");
      }
      out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

 private:
  static std::string Number(double value) {
    std::ostringstream os;
    os << value;
    return os.str();
  }

  std::vector<std::string> meta_;
  std::vector<Row> rows_;
};

/// A committed BENCH_*.json (bench/baselines/) read back for the
/// before/after-pipeline comparison. Only parses the flat two-level
/// shape JsonReport writes: scalar meta fields plus one "rows" array of
/// flat objects. All values come back as strings; use Num/Str.
struct BaselineReport {
  bool loaded = false;
  std::map<std::string, std::string> meta;
  std::vector<std::map<std::string, std::string>> rows;

  static double Num(const std::map<std::string, std::string>& object,
                    const std::string& key, double fallback = 0.0) {
    const auto it = object.find(key);
    return it == object.end() ? fallback : std::atof(it->second.c_str());
  }
  static std::string Str(const std::map<std::string, std::string>& object,
                         const std::string& key) {
    const auto it = object.find(key);
    return it == object.end() ? std::string() : it->second;
  }
  double MetaNum(const std::string& key, double fallback = 0.0) const {
    return Num(meta, key, fallback);
  }
};

namespace internal {

/// Key/value pairs of one flat JSON object body (no nested objects).
inline std::map<std::string, std::string> ParseFlatObject(
    const std::string& text) {
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  while (true) {
    const std::size_t key_open = text.find('"', i);
    if (key_open == std::string::npos) break;
    const std::size_t key_close = text.find('"', key_open + 1);
    if (key_close == std::string::npos) break;
    const std::string key =
        text.substr(key_open + 1, key_close - key_open - 1);
    std::size_t v = text.find(':', key_close);
    if (v == std::string::npos) break;
    ++v;
    while (v < text.size() &&
           std::isspace(static_cast<unsigned char>(text[v]))) {
      ++v;
    }
    if (v >= text.size()) break;
    if (text[v] == '"') {
      const std::size_t value_close = text.find('"', v + 1);
      if (value_close == std::string::npos) break;
      out[key] = text.substr(v + 1, value_close - v - 1);
      i = value_close + 1;
    } else {
      std::size_t value_end = v;
      while (value_end < text.size() && text[value_end] != ',' &&
             text[value_end] != '}' && text[value_end] != '\n') {
        ++value_end;
      }
      std::string value = text.substr(v, value_end - v);
      while (!value.empty() &&
             std::isspace(static_cast<unsigned char>(value.back()))) {
        value.pop_back();
      }
      out[key] = value;
      i = value_end;
    }
  }
  return out;
}

}  // namespace internal

/// Loads bench/baselines/<name>; `loaded` stays false when the file is
/// absent (benches then skip the comparison columns, they never fail).
inline BaselineReport LoadBaseline(const std::string& name) {
  BaselineReport report;
#ifdef RTSI_BENCH_BASELINE_DIR
  std::ifstream in(std::string(RTSI_BENCH_BASELINE_DIR) + "/" + name);
  if (!in) return report;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::size_t rows_at = text.find("\"rows\"");
  if (rows_at == std::string::npos) return report;
  report.meta = internal::ParseFlatObject(text.substr(0, rows_at));
  const std::size_t array_end = text.rfind(']');
  std::size_t i = text.find('[', rows_at);
  while (i != std::string::npos && array_end != std::string::npos) {
    const std::size_t open = text.find('{', i);
    if (open == std::string::npos || open > array_end) break;
    const std::size_t close = text.find('}', open);
    if (close == std::string::npos) break;
    report.rows.push_back(
        internal::ParseFlatObject(text.substr(open + 1, close - open - 1)));
    i = close + 1;
  }
  report.loaded = true;
#else
  (void)name;
#endif
  return report;
}

/// The committed-baseline latency gate (see bench/baselines/README.md):
/// drift is always printed; the exit-nonzero enforcement is opt-in
/// because wall-clock baselines only transfer within one machine class.
inline bool LatencyGateEnforced() {
  const char* env = std::getenv("RTSI_BENCH_GATE_LATENCY");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace rtsi::bench

#endif  // RTSI_BENCH_BENCH_UTIL_H_

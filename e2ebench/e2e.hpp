#pragma once
// Shared declarations of the evm_e2e benchmark program: options, the
// attempted/failed tally, exact sample statistics, the report digest, and the
// span-tree analysis of the traced run (spans.cpp).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "dataset/generator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace e2e {

enum class Workload { kBatch, kStream };

struct Options {
  Workload workload{Workload::kBatch};
  std::string workload_name;
  /// Drives the per-run inputs: query scenes and the stream watchlist.
  std::uint64_t seed{1};
  /// Dataset seed; 2017 is the documented default, 4242 the held-out one.
  std::uint64_t dataset_seed{2017};
  double seconds{10.0};
  bool trace{false};
  /// 0 = the paper population of bench::PaperConfig(); smaller values give
  /// the smoke mode.
  std::size_t population{0};
  /// Where traced runs write their span files.
  std::string out_dir;
  std::string worker_bin;
};

/// Operations attempted and failed; the first few failure messages.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;

  void Ok(std::uint64_t n = 1) { attempted += n; }
  void Fail(const std::string& what) {
    ++attempted;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  /// Counts one operation whose digest must equal `expected`.
  void Check(std::uint64_t digest, std::uint64_t expected,
             const std::string& what) {
    if (digest == expected) {
      Ok();
    } else {
      Fail(what + ": report digest mismatch");
    }
  }
};

struct Metric {
  double value{0.0};
  std::string unit;
  std::size_t samples{0};
};
using MetricMap = std::map<std::string, Metric>;

/// Steady-clock seconds.
double Now();
/// Process CPU seconds (user + system, all threads).
double CpuSeconds();
/// Exact quantile of raw samples, linear between order statistics.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
/// `s` as a JSON string literal (the names and messages this program prints
/// need only quote and backslash escaping).
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}
/// FNV-1a over the WriteMatchReportCsv bytes of `report`.
std::uint64_t ReportDigest(const evm::MatchReport& report);

// ---- span analysis (spans.cpp) ---------------------------------------------

/// What the traced run learns from the span subtree of one operation.
struct OpSpans {
  double wall_s{0.0};
  /// Wall time owned by each layer: at every instant the innermost open
  /// spans own the time, shared equally. The op span itself owns the rest
  /// ("unattributed"). The values add up to wall_s (checked).
  std::map<std::string, double> self_s;
  double split_s{0.0};        // top-level e-split spans
  double filter_eid_s{0.0};   // v-filter.eid spans (one FilterVid each)
  double extract_s{0.0};      // gallery.extract spans
  std::size_t extract_blocks{0};  // gallery.extract spans: blocks extracted
  double task_s{0.0};         // scheduler *.task spans
  double job_overhead_s{0.0};  // job/task-set spans not covered by tasks
  std::size_t jobs{0};         // mapreduce:* spans
  double seal_s{0.0};          // stream.seal spans
  double incremental_s{0.0};   // stream.incremental spans
  double run_tasks_s{0.0};     // dist.run_tasks spans
};

/// Index over a finished recorder's spans.
class SpanForest {
 public:
  explicit SpanForest(std::vector<evm::obs::SpanRecord> spans);
  [[nodiscard]] OpSpans Analyze(std::uint32_t root) const;

  /// Root spans not named op.*: program spans that escaped every op tree,
  /// so no op accounts for their time.
  struct Orphans {
    std::size_t count{0};
    double seconds{0.0};
    std::vector<std::string> names;  // the first few
  };
  [[nodiscard]] Orphans FindOrphans() const;
  /// Writes the evm-trace-v1 document and the Chrome trace-event document.
  bool Write(const std::string& evm_path, const std::string& chrome_path,
             const evm::obs::MetricsSnapshot& counters) const;

 private:
  [[nodiscard]] const evm::obs::SpanRecord& At(std::uint32_t id) const {
    return spans_[id - 1];
  }
  struct Node;
  [[nodiscard]] std::string LayerOf(std::uint32_t id) const;
  [[nodiscard]] std::uint32_t OpOf(std::uint32_t id) const;
  /// The subtree under `root`, parents before children.
  [[nodiscard]] std::vector<Node> Subtree(std::uint32_t root) const;
  /// Seconds each node of a subtree owns; the only definition of self time,
  /// for the layer metrics and the Chrome export alike.
  [[nodiscard]] static std::vector<double> Owned(
      const std::vector<Node>& nodes);

  std::vector<evm::obs::SpanRecord> spans_;
  std::vector<std::vector<std::uint32_t>> children_;  // by id - 1
};

/// Layers a traced run attributes wall time to; "unattributed" is the time
/// no layer span covers.
inline const std::vector<std::string>& Layers() {
  static const std::vector<std::string> layers = {
      "core", "vsense", "mapreduce", "stream", "dist"};
  return layers;
}

// ---- phases (phases.cpp) ---------------------------------------------------

/// Runs the selected workload — its mix of every operation when untraced,
/// its own operations when traced — and fills `metrics`; failed checks and
/// thrown errors go to `tally`.
void RunBenchmark(const Options& options, Tally& tally, MetricMap& metrics,
                  std::map<std::string, std::string>& notes);

}  // namespace e2e

// evm_e2e — the end-to-end benchmark program of EV-Matching.
//
//   evm_e2e --workload batch_paper|stream_replay
//           --seed N --seconds S --trace 0|1
//           [--dataset-seed N] [--population N] [--out-dir DIR]
//           [--worker-bin PATH]
//
// Prints one "metric" line per metric (value, unit, sample count), a detail
// JSON line (host block, seeds, sample counts, notes), and as the last line
// the result object {"correct", "attempted", "failed", "metrics"}. Exits 1
// when any operation failed its correctness check, 2 on a usage error.

#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "e2e.hpp"
#include "vsense/kernels/dispatch.hpp"

namespace {

using e2e::JsonQuote;
using e2e::Metric;
using e2e::MetricMap;

/// Every metric the benchmark reports, with its unit; BENCHMARK.json lists
/// the same names.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},           {"batch.match_s", "s"},
      {"batch.cpu_s", "s"},       {"batch.accuracy_pct", "%"},
      {"query.p50_ms", "ms"},     {"query.p95_ms", "ms"},
      {"stream.sat_rps", "rec/s"}, {"stream.lag_p50_ms", "ms"},
      {"stream.lag_p95_ms", "ms"}, {"dist.cold_match_s", "s"},
      {"dist.warm_match_s", "s"}};
  return m;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"dataset.generate_s", "s"},
      {"core.split_s", "s"},
      {"core.split_iterations", "count"},
      {"core.distinct_scenarios", "count"},
      {"core.scenarios_per_eid", "count"},
      {"core.filter_cpu_s", "s"},
      {"core.self_s", "s"},
      {"vsense.extractions", "count"},
      {"vsense.lookups", "count"},
      {"vsense.hit_ratio", "ratio"},
      {"vsense.extract_cpu_s", "s"},
      {"vsense.substrate_observations", "count"},
      {"vsense.render_us", "us"},
      {"vsense.histogram_us", "us"},
      {"vsense.comparisons", "count"},
      {"vsense.exact_rows", "count"},
      {"vsense.ns_per_comparison", "ns"},
      {"vsense.self_s", "s"},
      {"mapreduce.jobs", "count"},
      {"mapreduce.tasks", "count"},
      {"mapreduce.attempts", "count"},
      {"mapreduce.retries", "count"},
      {"mapreduce.task_cpu_s", "s"},
      {"mapreduce.shuffled_bytes", "bytes"},
      {"mapreduce.job_overhead_ms", "ms"},
      {"mapreduce.self_s", "s"},
      {"stream.push_blocked_s", "s"},
      {"stream.queue_depth_max", "count"},
      {"stream.seal_batches", "count"},
      {"stream.windows_per_batch", "count"},
      {"stream.seal_s", "s"},
      {"stream.incremental_s", "s"},
      {"stream.dirty_targets", "count"},
      {"stream.drain_pass_s", "s"},
      {"stream.failed_pushes", "count"},
      {"stream.generator_late_ms", "ms"},
      {"stream.self_s", "s"},
      {"dist.tasks", "count"},
      {"dist.payload_bytes", "bytes"},
      {"dist.run_tasks_s", "s"},
      {"dist.rpc_echo_us", "us"},
      {"dist.cold_minus_warm_s", "s"},
      {"dist.self_s", "s"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.unattributed_s", "s"},
      {"obs.op_wall_s", "s"},
      {"obs.traced_ops", "count"},
      {"obs.orphan_spans", "count"}};
  return m;
}

/// All significant digits; non-finite values become null.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// "k1: v1, k2: v2" over a map, each entry formatted by `fn`.
template <typename Map, typename Fn>
std::string JoinObject(const Map& map, Fn fn) {
  std::string out;
  for (const auto& [key, value] : map) {
    out += (out.empty() ? "" : ", ") + fn(key, value);
  }
  return out;
}

void Usage() {
  std::cerr << "usage: evm_e2e --workload batch_paper|stream_replay"
               " --seed N --seconds S --trace 0|1\n"
               "               [--dataset-seed N] [--population N] "
               "[--out-dir DIR] [--worker-bin PATH]\n";
}

bool Parse(int argc, char** argv, e2e::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload_name = value;
      if (value == "batch_paper") o.workload = e2e::Workload::kBatch;
      else if (value == "stream_replay") o.workload = e2e::Workload::kStream;
      else return false;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (arg == "--dataset-seed") {
      o.dataset_seed = std::stoull(value);
    } else if (arg == "--population") {
      o.population = std::stoul(value);
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else if (arg == "--worker-bin") {
      o.worker_bin = value;
    } else {
      return false;
    }
  }
  return !o.workload_name.empty() && o.seconds >= 0.0;
}

std::map<std::string, std::string> Host() {
  std::map<std::string, std::string> host;
  host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  host["kernel_isa"] = evm::kernels::IsaName(evm::kernels::ActiveIsa());
#if defined(__clang__)
  host["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host["compiler"] = std::string("gcc ") + __VERSION__;
#else
  host["compiler"] = "unknown";
#endif
  host["build_type"] = EVM_E2E_BUILD_TYPE;
  utsname u{};
  if (uname(&u) == 0) {
    host["machine"] = u.machine;
    host["os"] = std::string(u.sysname) + " " + u.release;
  }
  return host;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  options.worker_bin = EVM_WORKER_BIN_DEFAULT;
  options.out_dir = "traces";
  try {
    if (!Parse(argc, argv, options)) {
      Usage();
      return 2;
    }
  } catch (const std::exception&) {
    Usage();
    return 2;
  }

  e2e::Tally tally;
  MetricMap computed;
  std::map<std::string, std::string> notes;
  try {
    e2e::RunBenchmark(options, tally, computed, notes);
  } catch (const std::exception& e) {
    tally.Fail(std::string("exception: ") + e.what());
  }

  const auto& wanted = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  MetricMap reported;
  for (const auto& [name, unit] : wanted) {
    const auto it = computed.find(name);
    if (it == computed.end()) {
      tally.Fail("metric " + name + " was not measured");
      continue;
    }
    reported[name] = Metric{it->second.value, unit, it->second.samples};
  }

  const auto host = Host();
  std::cout << "# workload " << options.workload_name << " seed "
            << options.seed << " dataset-seed " << options.dataset_seed
            << " trace " << (options.trace ? 1 : 0) << "\n";
  for (const auto& [k, v] : host) {
    std::cout << "# host " << k << " = " << v << "\n";
  }
  for (const auto& [name, m] : reported) {
    std::cout << "metric " << name << " = " << Number(m.value) << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  for (const std::string& e : tally.errors) {
    std::cout << "# FAILED " << e << "\n";
  }

  std::string errors;
  for (const std::string& e : tally.errors) {
    errors += (errors.empty() ? "" : ", ") + JsonQuote(e);
  }
  const auto quoted = [](const std::string& k, const std::string& v) {
    return JsonQuote(k) + ": " + JsonQuote(v);
  };
  std::cout << "{\"workload\": " << JsonQuote(options.workload_name)
            << ", \"seed\": " << options.seed
            << ", \"dataset_seed\": " << options.dataset_seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"host\": {" << JoinObject(host, quoted)
            << "}, \"samples\": {"
            << JoinObject(reported,
                          [](const std::string& k, const Metric& m) {
                            return JsonQuote(k) + ": " +
                                   std::to_string(m.samples);
                          })
            << "}, \"notes\": {" << JoinObject(notes, quoted)
            << "}, \"errors\": [" << errors << "]}\n";

  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {"
            << JoinObject(reported,
                          [](const std::string& k, const Metric& m) {
                            return JsonQuote(k) + ": {\"value\": " +
                                   Number(m.value) + ", \"unit\": " +
                                   JsonQuote(m.unit) + "}";
                          })
            << "}}" << std::endl;
  return tally.failed == 0 ? 0 : 1;
}

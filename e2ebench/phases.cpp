// The operations of the end-to-end benchmark — batch Match, warm query,
// stream replay, dist Match — driven only through the system's public calls
// and timed from outside, each checked against a reference.
//
// A trace-off run measures every end-to-end metric: it runs the selected
// workload's cycle of steps over all four operations (CycleOf). A traced run
// alternates untraced and traced operations of the workload's own kind and
// derives the per-layer metrics from the span trees of the traced ones.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/matcher.hpp"
#include "core/set_splitting.hpp"
#include "dataset/trace_io.hpp"
#include "dist/codecs.hpp"
#include "dist/dist_engine.hpp"
#include "dist/dist_match.hpp"
#include "e2e.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/experiment.hpp"
#include "stream/counters.hpp"
#include "stream/stream_driver.hpp"
#include "vsense/appearance.hpp"
#include "vsense/features.hpp"

namespace e2e {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t ReportDigest(const evm::MatchReport& report) {
  std::ostringstream csv;
  evm::WriteMatchReportCsv(report, csv);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : csv.str()) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

namespace {

using namespace evm;

// Pinned concurrency on a 4-core host: MapReduce workers of the batch Match
// and of the warm queries, dist worker processes and dispatch threads (two
// RPCs in flight per worker), stream V workers. The queries run on 2
// workers: as fast as on 4 (p50 7.6 vs 8.7 ms), and when the host steals
// cycles a query waits on fewer descheduled workers.
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kQueryThreads = 2;
constexpr std::size_t kDistWorkers = 2;
constexpr std::size_t kDistDispatch = 4;
constexpr std::size_t kStreamVWorkers = 2;
constexpr std::size_t kWatchlist = 100;
/// Open-loop replay rate, records/s: about half of what the pipeline
/// absorbs when saturated (stream.sat_rps medians 0.96-1.13 M rec/s on a
/// 4-core x86-64 AVX-512 host, gcc 12 Release), so the lag metrics describe
/// a half-loaded pipeline.
constexpr double kPacedRate = 500'000.0;
constexpr int kSetupSamples = 5;
/// Every k-th warm query is re-run on the sequential reference matcher.
constexpr std::size_t kQueryCheckEvery = 8;
/// Untimed queries that open each query block. The first queries after a
/// heavy operation (a replay that freed its memory, a fresh dist cluster)
/// run on cold caches and fault pages back in; the block times the queries
/// after them.
constexpr std::size_t kQueryWarmup = 5;
/// Untimed Matches after each dist cold Match: the two Matches after it are
/// still 1.5-2x slower than the ones that follow (the workers' caches are
/// still filling), so the warm samples start after them.
constexpr std::size_t kDistSettle = 2;

MatcherConfig PaperMatcherConfig() {
  MatcherConfig config = DefaultSsConfig(/*practical=*/true);
  config.refine.min_majority = 0.75;  // as evmatch_cli --practical --refine
  config.engine.workers = kPoolThreads;
  return config;
}

/// The batch job, query and stream references: same configuration, one
/// thread, no MapReduce.
MatcherConfig SequentialConfig() {
  MatcherConfig config = PaperMatcherConfig();
  config.execution = ExecutionMode::kSequential;
  return config;
}

void Put(MetricMap& m, const std::string& name, double value,
         const std::string& unit, std::size_t samples) {
  m[name] = Metric{value, unit, samples};
}

/// Counter deltas between two registry snapshots.
std::map<std::string, double> CounterDelta(const obs::MetricsSnapshot& before,
                                           const obs::MetricsSnapshot& after) {
  std::map<std::string, double> delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    delta[name] = static_cast<double>(
        value - (it == before.counters.end() ? 0 : it->second));
  }
  return delta;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// One traced operation: its op span and what was measured around it.
struct TracedOp {
  std::uint32_t root{0};
  /// A dist op of the batch workload's traced run: it feeds the dist.*
  /// metrics only.
  bool dist{false};
  std::map<std::string, double> counters;  // registry deltas
  std::map<std::string, double> values;    // benchmark-side per-layer values
};

struct Ctx {
  const Options& opt;
  Tally& tally;
  MetricMap& metrics;
  std::map<std::string, std::string>& notes;
  DatasetConfig config{};
  std::unique_ptr<Dataset> dataset{};
  std::vector<Eid> targets{};
  std::unique_ptr<EvMatcher> reference{};  // sequential, warm once it ran
  std::uint64_t reference_digest{0};
  obs::TraceRecorder* trace{nullptr};  // traced run only
  std::vector<TracedOp> traced{};
  std::vector<double> untraced_walls{};
  std::vector<double> traced_walls{};
  std::size_t queries{0};  // warm queries run, for kQueryCheckEvery
  obs::MetricsSnapshot counter_totals{};  // for the evm-trace-v1 export
  bool substrate_timed{false};           // SubstrateCost ran once
};

bool TimeLeft(double start, double budget) { return Now() - start < budget; }

void AddCounters(Ctx& ctx, const std::map<std::string, double>& delta) {
  for (const auto& [name, value] : delta) {
    ctx.counter_totals.counters[name] += static_cast<std::uint64_t>(value);
  }
}

// ---- setup -----------------------------------------------------------------

dist::DistEngineOptions DistOptions(const Ctx& ctx) {
  dist::DistEngineOptions options;
  options.worker_binary = ctx.opt.worker_bin;
  options.workers = kDistWorkers;
  options.dispatch_threads = kDistDispatch;
  return options;
}

dist::DistMatchConfig DistConfig(const Ctx& ctx) {
  const MatcherConfig matcher = PaperMatcherConfig();
  dist::DistMatchConfig config;
  config.dataset = ctx.config;
  config.split = matcher.split;
  config.candidate_pool = matcher.filter.candidate_pool;
  config.refine = matcher.refine;
  return config;
}

stream::StreamDriverConfig StreamConfig(const Dataset& dataset,
                                        const std::vector<Eid>& watchlist) {
  const MatcherConfig matcher = PaperMatcherConfig();
  stream::StreamDriverConfig config;
  config.e_queue = {8192, stream::BackpressurePolicy::kBlock};
  config.v_queue = {8192, stream::BackpressurePolicy::kBlock};
  config.store.scenario = EScenarioConfig{
      dataset.config.window_ticks, dataset.config.vague_width_m,
      dataset.config.inclusive_threshold, dataset.config.vague_threshold};
  config.shards = 1;
  config.v_workers = kStreamVWorkers;
  config.match.split = matcher.split;
  config.match.filter = matcher.filter;
  config.match.refine = matcher.refine;
  config.match.targets = watchlist;
  return config;
}

std::vector<Eid> Watchlist(const Dataset& dataset, std::uint64_t seed) {
  return SampleTargets(dataset, std::min(kWatchlist, dataset.AllEids().size()),
                       seed);
}

/// One timed setup: dataset generation plus the construction of the
/// selected workload's system. Returns its seconds; the generation part goes
/// to `generate_s`.
double SetupOnce(Ctx& ctx, std::vector<double>& generate_s) {
  const double t0 = Now();
  auto dataset = std::make_unique<Dataset>(GenerateDataset(ctx.config));
  generate_s.push_back(Now() - t0);
  if (ctx.opt.workload == Workload::kBatch) {
    const EvMatcher matcher(dataset->e_scenarios, dataset->v_scenarios,
                            dataset->oracle, PaperMatcherConfig());
  } else {
    stream::StreamDriver driver(
        dataset->grid, dataset->oracle,
        StreamConfig(*dataset, Watchlist(*dataset, ctx.opt.seed)));
    driver.Start();
    driver.Shutdown();
  }
  const double seconds = Now() - t0;
  ctx.dataset = std::move(dataset);
  ctx.targets = ctx.dataset->AllEids();
  return seconds;
}

void Reference(Ctx& ctx) {
  ctx.reference = std::make_unique<EvMatcher>(
      ctx.dataset->e_scenarios, ctx.dataset->v_scenarios, ctx.dataset->oracle,
      SequentialConfig());
  ctx.reference_digest = ReportDigest(ctx.reference->Match(ctx.targets));
}

// ---- batch Match -----------------------------------------------------------

/// Render + histogram cost per observation, timed over the observations
/// `gallery` extracted — all of them, or the first kSubstrateCap in scenario
/// id order — and checked bit for bit against the gallery's cached features.
void SubstrateCost(Ctx& ctx, const FeatureGallery& gallery, TracedOp& op) {
  constexpr std::size_t kSubstrateCap = 16384;
  const Dataset& ds = *ctx.dataset;
  std::vector<std::uint64_t> ids;
  gallery.ForEachReadyBlock(
      [&](std::uint64_t id, const FeatureBlock&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  std::vector<std::uint64_t> chosen;
  std::size_t planned = 0;
  for (const std::uint64_t id : ids) {
    const VScenario* scenario = ds.v_scenarios.Find(ScenarioId{id});
    if (scenario == nullptr || planned >= kSubstrateCap) continue;
    chosen.push_back(id);
    planned += scenario->observations.size();
  }

  const std::vector<LatentAppearance> appearances = GenerateAppearances(
      ds.config.population, MakeStream(ds.config.seed, "appearance"));
  double render_s = 0.0;
  double histogram_s = 0.0;
  std::size_t observations = 0;
  bool identical = true;
  gallery.ForEachReadyBlock([&](std::uint64_t id, const FeatureBlock& block) {
    if (!std::binary_search(chosen.begin(), chosen.end(), id)) return;
    const VScenario& scenario = *ds.v_scenarios.Find(ScenarioId{id});
    for (std::size_t i = 0; i < scenario.observations.size(); ++i) {
      const VObservation& o = scenario.observations[i];
      const double t0 = Now();
      const Image crop = RenderObservation(
          appearances[static_cast<std::size_t>(o.vid.value())],
          ds.config.render, o.render_seed);
      const double t1 = Now();
      const FeatureVector features = ExtractFeatures(crop, ds.config.features);
      histogram_s += Now() - t1;
      render_s += t1 - t0;
      identical = identical && features == block.Row(i);
      ++observations;
    }
  });
  if (!identical) {
    ctx.tally.Fail("substrate features differ from the gallery's");
  }
  ctx.substrate_timed = true;
  const double n = static_cast<double>(observations);
  op.values["vsense.substrate_observations"] = n;
  op.values["vsense.render_us"] = observations == 0 ? 0.0 : render_s / n * 1e6;
  op.values["vsense.histogram_us"] =
      observations == 0 ? 0.0 : histogram_s / n * 1e6;
}

struct BatchSample {
  double wall{0.0};
  double cpu{0.0};
  double accuracy_pct{0.0};
};

/// One cold-gallery Match of every EID on a fresh MapReduce EvMatcher.
BatchSample BatchOnce(Ctx& ctx, bool traced) {
  const Dataset& ds = *ctx.dataset;
  obs::MetricsRegistry registry;
  MatcherConfig config = PaperMatcherConfig();
  config.metrics = &registry;
  config.trace = traced ? ctx.trace : nullptr;
  EvMatcher matcher(ds.e_scenarios, ds.v_scenarios, ds.oracle, config);
  const obs::MetricsSnapshot before = registry.Snapshot();
  BatchSample sample;
  TracedOp op;
  MatchReport report;
  const double c0 = CpuSeconds();
  const double t0 = Now();
  {
    obs::StageSpan span(config.trace, "op.batch_match");
    op.root = span.id();
    report = matcher.Match(ctx.targets);
  }
  sample.wall = Now() - t0;
  sample.cpu = CpuSeconds() - c0;
  sample.accuracy_pct = MatchAccuracy(report.results, ds.truth) * 100.0;
  ctx.tally.Check(ReportDigest(report), ctx.reference_digest, "batch Match");
  if (traced) {
    op.counters = CounterDelta(before, registry.Snapshot());
    op.values["core.distinct_scenarios"] =
        static_cast<double>(report.stats.distinct_scenarios);
    op.values["core.scenarios_per_eid"] = report.stats.avg_scenarios_per_eid;
    if (!ctx.substrate_timed) SubstrateCost(ctx, matcher.gallery(), op);
    AddCounters(ctx, op.counters);
    ctx.traced.push_back(std::move(op));
    ctx.traced_walls.push_back(sample.wall);
  } else {
    ctx.untraced_walls.push_back(sample.wall);
  }
  return sample;
}

// ---- warm crime-scene queries ---------------------------------------------

/// Crime-scene queries: the inclusive EIDs of seeded E-scenarios that hold
/// at least two of them (examples/crime_scene_query.cpp).
class QueryGen {
 public:
  QueryGen(const Dataset& ds, std::uint64_t seed)
      : rng_(MakeStream(seed, "e2e-crime-scene")) {
    for (const EScenario& scene : ds.e_scenarios.scenarios()) {
      std::vector<Eid> suspects;
      for (const EidEntry& entry : scene.entries) {
        if (entry.attr == EidAttr::kInclusive) suspects.push_back(entry.eid);
      }
      if (suspects.size() >= 2) scenes_.push_back(std::move(suspects));
    }
    EVM_CHECK_MSG(!scenes_.empty(), "no crime scene with two suspects");
  }
  const std::vector<Eid>& Next() {
    return scenes_[rng_.NextBelow(scenes_.size())];
  }

 private:
  Rng rng_;
  std::vector<std::vector<Eid>> scenes_;
};

/// Exact p50 and p95 of each block of samples (a query block, a paced
/// replay's windows).
struct BlockPercentiles {
  std::vector<double> p50;
  std::vector<double> p95;
  std::size_t samples{0};

  void Add(const std::vector<double>& block) {
    p50.push_back(Quantile(block, 0.50));
    p95.push_back(Quantile(block, 0.95));
    samples += block.size();
  }
};

/// A block of closed-loop queries from one client against a warm matcher:
/// kQueryWarmup untimed ones, then `count` timed ones. Appends each timed
/// latency to `latency` and the block's percentiles to `blocks`.
void RunQueries(Ctx& ctx, EvMatcher& warm, QueryGen& gen, std::size_t count,
                std::vector<double>& latency, BlockPercentiles& blocks) {
  std::vector<double> block;
  for (std::size_t i = 0; i < kQueryWarmup + count; ++i) {
    const std::vector<Eid>& suspects = gen.Next();
    const double t0 = Now();
    const MatchReport report = warm.Match(suspects);
    if (i >= kQueryWarmup) block.push_back(Now() - t0);
    if (ctx.queries++ % kQueryCheckEvery == 0) {
      ctx.tally.Check(ReportDigest(report),
                      ReportDigest(ctx.reference->Match(suspects)), "query");
    } else {
      ctx.tally.Ok();
    }
  }
  latency.insert(latency.end(), block.begin(), block.end());
  blocks.Add(block);
}

// ---- stream replay ---------------------------------------------------------

/// The dataset as one tick-ordered event sequence — E records, V detections
/// and a watermark at every window boundary — plus the bookkeeping the lag
/// measurement needs. stream::ReplayDataset pushes the same sequence but
/// offers no due times, per-push timing or per-window record counts, so the
/// order is built here: the tick merge, the heartbeat watermark per window
/// boundary and the final mark two windows on must stay in step with
/// ReplayDataset (src/stream/replay.cpp). The drain digest check would catch
/// a sequence that no longer reproduces the batch input.
struct StreamPlan {
  struct Event {
    std::uint8_t kind;  // 0 = E record, 1 = V detection, 2 = watermark
    std::int64_t value;  // record index, or watermark tick
  };
  std::vector<Event> events;
  std::vector<stream::VDetection> detections;
  std::size_t records{0};
  /// Records in windows <= k.
  std::vector<std::uint64_t> cumulative;
  /// Record slot at which the watermark closing window k is due.
  std::vector<std::size_t> close_slot;
  std::vector<Eid> watchlist;
  std::uint64_t reference_digest{0};
};

StreamPlan MakeStreamPlan(Ctx& ctx) {
  const Dataset& ds = *ctx.dataset;
  StreamPlan plan;
  for (const VScenario& scenario : ds.v_scenarios.scenarios()) {
    for (const VObservation& observation : scenario.observations) {
      plan.detections.push_back(stream::VDetection{
          scenario.window.begin, scenario.cell, observation});
    }
  }
  const std::int64_t wt = ds.config.window_ticks;
  const std::vector<ERecord>& e = ds.e_log.records();
  const std::vector<stream::VDetection>& v = plan.detections;
  plan.records = e.size() + v.size();
  const std::size_t windows =
      ds.config.ticks / static_cast<std::size_t>(wt) + 2;
  std::vector<std::uint64_t> per_window(windows, 0);
  plan.close_slot.assign(windows, plan.records);
  std::int64_t watermark = 0;
  std::size_t ei = 0;
  std::size_t vi = 0;
  std::size_t slot = 0;
  plan.events.reserve(plan.records + windows + 1);
  while (ei < e.size() || vi < v.size()) {
    const bool take_e =
        vi >= v.size() ||
        (ei < e.size() && e[ei].tick.value <= v[vi].tick.value);
    const std::int64_t tick = take_e ? e[ei].tick.value : v[vi].tick.value;
    const std::int64_t boundary = (tick / wt) * wt;
    while (watermark < boundary) {
      watermark += wt;
      plan.events.push_back({2, watermark});
      const auto closed = static_cast<std::size_t>(watermark / wt - 1);
      if (closed < windows) plan.close_slot[closed] = slot;
    }
    const auto window = static_cast<std::size_t>(tick / wt);
    if (window < windows) ++per_window[window];
    plan.events.push_back(
        {static_cast<std::uint8_t>(take_e ? 0 : 1),
         static_cast<std::int64_t>(take_e ? ei++ : vi++)});
    ++slot;
  }
  plan.events.push_back({2, (watermark / wt + 2) * wt});
  plan.cumulative.resize(windows);
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < windows; ++k) {
    sum += per_window[k];
    // 0 marks an empty window: there is nothing to wait for.
    plan.cumulative[k] = per_window[k] == 0 ? 0 : sum;
  }
  plan.watchlist = Watchlist(ds, ctx.opt.seed);
  plan.reference_digest = ReportDigest(ctx.reference->Match(plan.watchlist));
  return plan;
}

struct ReplayResult {
  double seconds{0.0};
  std::vector<double> lag;
};

/// Stops a monitor thread and joins it, at the latest on scope exit, so an
/// exception thrown by the replay cannot leave it running.
class StopAndJoin {
 public:
  StopAndJoin(std::atomic<bool>& stop, std::thread& thread)
      : stop_(stop), thread_(thread) {}
  ~StopAndJoin() { Join(); }
  StopAndJoin(const StopAndJoin&) = delete;
  StopAndJoin& operator=(const StopAndJoin&) = delete;

  void Join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool>& stop_;
  std::thread& thread_;
};

/// One replay into a fresh driver. rate > 0: open loop with due times
/// stamped by the generator; rate == 0: offered as fast as pushes return.
ReplayResult ReplayOnce(Ctx& ctx, const StreamPlan& plan, double rate,
                        bool traced) {
  const Dataset& ds = *ctx.dataset;
  obs::MetricsRegistry registry;
  stream::StreamDriverConfig config = StreamConfig(ds, plan.watchlist);
  config.metrics = &registry;
  config.trace = traced ? ctx.trace : nullptr;
  stream::StreamDriver driver(ds.grid, ds.oracle, config);
  driver.Start();

  // Window k has finished once the record-to-match stat has counted every
  // record of windows <= k: the driver records them only after the seal
  // batch covering k (incremental pass included) has completed.
  const std::size_t windows = plan.cumulative.size();
  std::vector<double> finished(windows, -1.0);
  double depth_max = 0.0;
  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    std::size_t next = 0;
    bool last = false;
    while (true) {
      last = stop.load();
      const std::uint64_t n = registry.Latency(stream::kLatRecordToMatch).count;
      const double t = Now();
      while (next < windows && plan.cumulative[next] <= n) finished[next++] = t;
      if (traced) {
        const obs::MetricsSnapshot snap = registry.Snapshot();
        double depth = 0.0;
        for (const char* g :
             {stream::kGaugeEQueueDepth, stream::kGaugeVQueueDepth}) {
          const auto it = snap.gauges.find(g);
          if (it != snap.gauges.end()) depth += it->second;
        }
        depth_max = std::max(depth_max, depth);
      }
      if (last || next == windows) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  StopAndJoin join_monitor(stop, monitor);

  const std::vector<ERecord>& e = ds.e_log.records();
  std::uint64_t refused = 0;
  double push_s = 0.0;
  std::vector<double> late;
  TracedOp op;
  ReplayResult result;
  MatchReport report;
  double drain_s = 0.0;
  const double start = Now();
  const double t0 = start + 1e-3;  // due time of the first paced record
  {
    obs::StageSpan span(config.trace, "op.stream_replay");
    obs::AmbientParentScope ambient(config.trace, span.id());
    op.root = span.id();
    std::size_t slot = 0;
    for (const StreamPlan::Event& ev : plan.events) {
      if (rate > 0.0 && ev.kind != 2 && slot % 64 == 0) {
        const double due = t0 + static_cast<double>(slot) / rate;
        const double now = Now();
        late.push_back(std::max(0.0, now - due));
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        }
      }
      const double p0 = traced ? Now() : 0.0;
      stream::PushResult r = stream::PushResult::kAccepted;
      if (ev.kind == 0) {
        r = driver.PushE(e[static_cast<std::size_t>(ev.value)]);
      } else if (ev.kind == 1) {
        r = driver.PushV(plan.detections[static_cast<std::size_t>(ev.value)]);
      } else {
        driver.AdvanceWatermark(Tick{ev.value});
      }
      if (traced) push_s += Now() - p0;
      if (ev.kind == 2) continue;
      ++slot;
      if (r != stream::PushResult::kAccepted) ++refused;
    }
    const double d0 = Now();
    report = driver.Drain();
    drain_s = Now() - d0;
  }
  const double end = Now();
  join_monitor.Join();
  result.seconds = end - start;

  for (std::size_t k = 0; rate > 0.0 && k < windows; ++k) {
    if (plan.cumulative[k] == 0) continue;  // an empty window
    if (finished[k] < 0.0) {
      ctx.tally.Fail("stream window never reported sealed");
      continue;
    }
    const double due = t0 + static_cast<double>(plan.close_slot[k]) / rate;
    result.lag.push_back(finished[k] - due);
  }
  ctx.tally.Ok(plan.records - refused);
  for (std::uint64_t i = 0; i < refused; ++i) ctx.tally.Fail("refused push");
  ctx.tally.Check(ReportDigest(report), plan.reference_digest, "stream drain");

  if (traced) {
    op.counters = CounterDelta(obs::MetricsSnapshot{}, registry.Snapshot());
    op.values["stream.push_blocked_s"] = push_s;
    op.values["stream.queue_depth_max"] = depth_max;
    op.values["stream.drain_pass_s"] = drain_s;
    op.values["stream.failed_pushes"] = static_cast<double>(refused);
    if (rate > 0.0) {
      op.values["stream.generator_late_ms"] = Quantile(late, 0.95) * 1e3;
    }
    op.values["core.distinct_scenarios"] =
        static_cast<double>(report.stats.distinct_scenarios);
    op.values["core.scenarios_per_eid"] = report.stats.avg_scenarios_per_eid;
    if (!ctx.substrate_timed) {
      SubstrateCost(ctx, driver.matcher().gallery(), op);
    }
    AddCounters(ctx, op.counters);
    ctx.traced.push_back(std::move(op));
    ctx.traced_walls.push_back(result.seconds);
  } else {
    ctx.untraced_walls.push_back(result.seconds);
  }
  return result;
}

// ---- dist Match ------------------------------------------------------------

/// DistMatcher::Match with its stages driven here, so the traced run can
/// span the RunTasks hop; the report must equal the facade's.
MatchReport TracedDistMatch(Ctx& ctx, dist::DistEngine& engine,
                            const std::vector<Eid>& universe,
                            obs::MetricsRegistry& registry, TracedOp& op,
                            std::uint64_t job_id) {
  const dist::DistMatchConfig config = DistConfig(ctx);
  const Dataset& ds = *ctx.dataset;
  double payload_bytes = 0.0;
  double tasks = 0.0;
  const std::string job = "e2e-dist#" + std::to_string(job_id);
  const SplitStageFn split = [&](const std::vector<Eid>& targets,
                                 std::uint64_t seed) {
    SplitConfig cfg = config.split;
    cfg.seed = seed;
    return RunSplitStage(ds.e_scenarios, cfg, universe, targets, registry,
                         ctx.trace);
  };
  const FilterStageFn filter = [&](const std::vector<EidScenarioList>& lists,
                                   std::vector<MatchResult>& results) {
    std::vector<dist::Bytes> payloads;
    payloads.reserve(lists.size());
    for (const EidScenarioList& list : lists) {
      payloads.push_back(dist::EncodeMatchFilterTask(
          config.dataset, config.candidate_pool, list));
      payload_bytes += static_cast<double>(payloads.back().size());
    }
    tasks += static_cast<double>(payloads.size());
    std::vector<dist::Bytes> outputs;
    {
      obs::StageSpan span(ctx.trace, "dist.run_tasks");
      outputs = engine.RunTasks(job, dist::kMatchFilterKind, payloads);
    }
    results.resize(lists.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      payload_bytes += static_cast<double>(outputs[i].size());
      results[i] = dist::DecodeValue<MatchResult>(outputs[i]);
    }
  };
  MatchReport report;
  {
    obs::StageSpan span(ctx.trace, "op.dist_match");
    op.root = span.id();
    report = RunMatchPass(ctx.targets, config.refine, config.split.seed, split,
                          filter, registry, ctx.trace);
  }
  op.values["dist.tasks"] = tasks;
  op.values["dist.payload_bytes"] = payload_bytes;
  return report;
}

/// The dist Matches of the traced run: one fresh cluster, a cold
/// stage-driven Match, kDistSettle more, then a warm one and an RPC echo
/// probe. The cold and the warm one are the traced ops.
void TracedDistCluster(Ctx& ctx, std::uint64_t& job_id) {
  const std::vector<Eid> universe = CollectUniverse(ctx.dataset->e_scenarios);
  dist::DistEngine engine(DistOptions(ctx));
  double cold = 0.0;
  const std::size_t runs = kDistSettle + 2;
  for (std::size_t run = 0; run < runs; ++run) {
    obs::MetricsRegistry registry;
    TracedOp op;
    op.dist = true;
    const double t0 = Now();
    const MatchReport report =
        TracedDistMatch(ctx, engine, universe, registry, op, job_id++);
    const double wall = Now() - t0;
    ctx.tally.Check(ReportDigest(report), ctx.reference_digest,
                    "stage-driven dist Match");
    if (run != 0 && run + 1 != runs) continue;  // a settling Match
    op.counters = CounterDelta(obs::MetricsSnapshot{}, registry.Snapshot());
    if (run == 0) {
      cold = wall;
    } else {
      std::vector<double> echo;
      for (int p = 0; p < 100; ++p) {
        for (const dist::WorkerId id : engine.Workers()) {
          const double p0 = Now();
          if (!engine.Ping(id)) ctx.tally.Fail("worker ping failed");
          echo.push_back(Now() - p0);
        }
      }
      op.values["dist.rpc_echo_us"] = Median(echo) * 1e6;
      op.values["dist.cold_minus_warm_s"] = cold - wall;
    }
    AddCounters(ctx, op.counters);
    ctx.traced.push_back(std::move(op));
  }
}

// ---- the measured mix -----------------------------------------------------

/// One step of a workload's cycle.
enum class Step {
  kBatch,      // one cold-gallery batch Match
  kDistCold,   // a fresh dist cluster, its cold Match, kDistSettle more
  kDistWarm,   // kWarmPerStep timed Matches on the current cluster
  kPaced,      // one open-loop replay at kPacedRate
  kSaturated,  // one replay offered as fast as pushes return
  kQueries,    // one block of kQueryBlock warm queries
};

constexpr std::size_t kWarmPerStep = 2;
/// Each block's p95 has 7.5 samples beyond it; a cycle runs 10 blocks (1500
/// queries).
constexpr std::size_t kQueryBlock = 150;

/// The cycle of steps a workload runs; one cycle takes about 45 s on a
/// 4-core x86-64 host. Every run reports every end-to-end metric, so every
/// cycle holds every operation. The query blocks sit between the other
/// steps, so the query samples spread over the whole run, and each kind of
/// step recurs across the cycle, so slow drift of the host's speed reaches
/// every metric alike. The query and lag percentiles are exact per block (a
/// query block, a paced replay) and reported as the median over blocks, so
/// a burst of host contention during a few blocks does not move them.
std::vector<Step> CycleOf(Workload w) {
  using S = Step;
  constexpr S Q = S::kQueries;
  constexpr S B = S::kBatch;
  constexpr S W = S::kDistWarm;
  if (w == Workload::kBatch) {
    // 5 batch Matches, 1 cold + 10 warm dist Matches, 2 paced + 1
    // saturated replays, 1500 queries.
    return {B, Q, S::kDistCold, Q, W, S::kPaced, Q, B, Q, W, S::kSaturated, Q,
            B, Q, W, S::kPaced, Q, W, Q, B, Q, Q, W, B};
  }
  // 2 paced + 2 saturated replays, 3 batch Matches, 1 cold + 10 warm dist
  // Matches, 1500 queries.
  return {S::kPaced, Q, S::kDistCold, W, Q, S::kSaturated, Q, B, W, Q,
          S::kPaced, Q, W, B, Q, S::kSaturated, Q, W, Q, Q, W, Q, B};
}

/// Runs the workload's cycle, its steps in turn, while the time left covers
/// the next step (as long as the last step of its kind took), and at least
/// until every kind of step has run once. On a slow host the run so ends on
/// time with fewer samples; on a fast one it runs on into the next cycle.
void MixedRun(Ctx& ctx) {
  const std::vector<Step> cycle = CycleOf(ctx.opt.workload);
  const std::size_t n = cycle.size();
  std::size_t coverage = 0;  // steps until every kind has run
  std::set<Step> seen;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen.insert(cycle[i]).second) coverage = i + 1;
  }
  MatcherConfig query_config = PaperMatcherConfig();
  query_config.engine.workers = kQueryThreads;
  EvMatcher warm(ctx.dataset->e_scenarios, ctx.dataset->v_scenarios,
                 ctx.dataset->oracle, query_config);
  ctx.tally.Check(ReportDigest(warm.MatchUniversal()), ctx.reference_digest,
                  "query warm-up MatchUniversal");
  QueryGen gen(*ctx.dataset, ctx.opt.seed);
  const StreamPlan plan = MakeStreamPlan(ctx);
  std::unique_ptr<dist::DistEngine> engine;
  std::unique_ptr<dist::DistMatcher> cluster;

  std::vector<double> batch_wall;
  std::vector<double> batch_cpu;
  double accuracy = 0.0;
  std::vector<double> query;
  BlockPercentiles query_blocks;
  BlockPercentiles lag;
  std::vector<double> sat_rps;
  std::vector<double> dist_cold;
  std::vector<double> dist_warm;
  const auto dist_match = [&](std::vector<double>* walls, const char* what) {
    const double t0 = Now();
    const MatchReport report = cluster->Match(ctx.targets);
    if (walls != nullptr) walls->push_back(Now() - t0);
    ctx.tally.Check(ReportDigest(report), ctx.reference_digest, what);
  };
  std::map<Step, double> took;  // seconds the last step of each kind took
  const double start = Now();
  std::size_t steps = 0;
  for (;; ++steps) {
    const Step step = cycle[steps % n];
    const double left = ctx.opt.seconds - (Now() - start);
    if (steps >= coverage && left < took[step]) break;
    const double step_start = Now();
    switch (step) {
      case Step::kBatch: {
        const BatchSample s = BatchOnce(ctx, false);
        batch_wall.push_back(s.wall);
        batch_cpu.push_back(s.cpu);
        accuracy = s.accuracy_pct;
        break;
      }
      case Step::kDistCold:
        cluster.reset();
        engine = std::make_unique<dist::DistEngine>(DistOptions(ctx));
        cluster = std::make_unique<dist::DistMatcher>(*engine, DistConfig(ctx));
        dist_match(&dist_cold, "dist cold Match");
        for (std::size_t k = 0; k < kDistSettle; ++k) {
          dist_match(nullptr, "dist settling Match");
        }
        break;
      case Step::kDistWarm:
        EVM_CHECK_MSG(cluster != nullptr, "warm dist step before a cold one");
        for (std::size_t k = 0; k < kWarmPerStep; ++k) {
          dist_match(&dist_warm, "dist warm Match");
        }
        break;
      case Step::kPaced: {
        const ReplayResult paced = ReplayOnce(ctx, plan, kPacedRate, false);
        lag.Add(paced.lag);
        break;
      }
      case Step::kSaturated: {
        const ReplayResult saturated = ReplayOnce(ctx, plan, 0.0, false);
        sat_rps.push_back(static_cast<double>(plan.records) /
                          saturated.seconds);
        break;
      }
      case Step::kQueries:
        RunQueries(ctx, warm, gen, kQueryBlock, query, query_blocks);
        break;
    }
    took[step] = Now() - step_start;
  }
  MetricMap& m = ctx.metrics;
  Put(m, "batch.match_s", Median(batch_wall), "s", batch_wall.size());
  Put(m, "batch.cpu_s", Median(batch_cpu), "s", batch_cpu.size());
  Put(m, "batch.accuracy_pct", accuracy, "%", 1);
  Put(m, "query.p50_ms", Median(query_blocks.p50) * 1e3, "ms", query.size());
  Put(m, "query.p95_ms", Median(query_blocks.p95) * 1e3, "ms", query.size());
  Put(m, "stream.sat_rps", Median(sat_rps), "rec/s", sat_rps.size());
  Put(m, "stream.lag_p50_ms", Median(lag.p50) * 1e3, "ms", lag.samples);
  Put(m, "stream.lag_p95_ms", Median(lag.p95) * 1e3, "ms", lag.samples);
  Put(m, "dist.cold_match_s", Median(dist_cold), "s", dist_cold.size());
  Put(m, "dist.warm_match_s", Median(dist_warm), "s", dist_warm.size());
  ctx.notes["steps"] = std::to_string(steps);
  ctx.notes["phase_s.measured"] = std::to_string(Now() - start);
  ctx.notes["query.blocks"] = std::to_string(query_blocks.p95.size());
  ctx.notes["query.p50_pooled_ms"] =
      std::to_string(Quantile(query, 0.50) * 1e3);
  ctx.notes["query.p95_pooled_ms"] =
      std::to_string(Quantile(query, 0.95) * 1e3);
  ctx.notes["stream.paced_replays"] = std::to_string(lag.p95.size());
  ctx.notes["stream.records"] = std::to_string(plan.records);
  ctx.notes["stream.paced_rate_rps"] = std::to_string(kPacedRate);
  ctx.notes["threads.batch"] = std::to_string(kPoolThreads);
  ctx.notes["threads.query"] = std::to_string(kQueryThreads);
  ctx.notes["dist.workers"] = std::to_string(kDistWorkers);
  ctx.notes["dist.dispatch_threads"] = std::to_string(kDistDispatch);
  ctx.notes["stream.v_workers"] = std::to_string(kStreamVWorkers);
}

// ---- traced run ------------------------------------------------------------

/// Alternates untraced and traced operations of the selected workload; the
/// batch workload also traces one dist cluster, the dist layer's only
/// coverage.
void TracedPhase(Ctx& ctx) {
  const double start = Now();
  if (ctx.opt.workload == Workload::kBatch) {
    std::uint64_t job_id = 0;
    TracedDistCluster(ctx, job_id);
    for (std::size_t i = 0; i < 3 || TimeLeft(start, ctx.opt.seconds); ++i) {
      (void)BatchOnce(ctx, false);
      (void)BatchOnce(ctx, true);
    }
    return;
  }
  const StreamPlan plan = MakeStreamPlan(ctx);
  for (std::size_t i = 0; i < 1 || TimeLeft(start, ctx.opt.seconds); ++i) {
    for (const double rate : {kPacedRate, 0.0}) {
      (void)ReplayOnce(ctx, plan, rate, false);
      (void)ReplayOnce(ctx, plan, rate, true);
    }
  }
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void LayerMetrics(Ctx& ctx, const std::vector<double>& generate_s) {
  const SpanForest forest(ctx.trace->Spans());
  MetricMap& m = ctx.metrics;
  std::map<std::string, std::vector<double>> per_op;
  const auto add = [&](const std::string& name, double value) {
    per_op[name].push_back(value);
  };
  std::size_t main_ops = 0;
  for (const TracedOp& op : ctx.traced) {
    const OpSpans s = forest.Analyze(op.root);
    for (const auto& [name, value] : op.values) {
      if (!op.dist || name.rfind("dist.", 0) == 0) add(name, value);
    }
    if (op.dist) {
      add("dist.run_tasks_s", s.run_tasks_s);
      add("dist.self_s", Get(s.self_s, "dist"));
      continue;
    }
    ++main_ops;
    const auto& c = op.counters;
    const auto sum_mr = [&](const std::string& suffix) {
      double total = 0.0;
      for (const auto& [name, value] : c) {
        const bool suffixed =
            name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
                0;
        if (name.rfind("mr.", 0) == 0 && suffixed &&
            name != "mr.quarantined_tasks") {
          total += value;
        }
      }
      return total;
    };
    for (const std::string& layer : Layers()) {
      if (layer != "dist") add(layer + ".self_s", Get(s.self_s, layer));
    }
    add("obs.op_wall_s", s.wall_s);
    add("obs.unattributed_s", Get(s.self_s, "unattributed"));
    add("core.split_s", s.split_s);
    add("core.split_iterations", Get(c, "match.splitting_iterations"));
    add("core.filter_cpu_s", s.filter_eid_s);
    const double hits = Get(c, "gallery.hits");
    const double lookups = hits + static_cast<double>(s.extract_blocks);
    add("vsense.extractions", Get(c, "gallery.extractions"));
    add("vsense.lookups", lookups);
    add("vsense.hit_ratio", lookups == 0.0 ? 0.0 : hits / lookups);
    add("vsense.extract_cpu_s", s.extract_s);
    const double comparisons = Get(c, "match.feature_comparisons");
    add("vsense.comparisons", comparisons);
    add("vsense.exact_rows", Get(c, "match.exact_feature_rows"));
    add("vsense.ns_per_comparison",
        comparisons == 0.0 ? 0.0 : s.filter_eid_s / comparisons * 1e9);
    add("mapreduce.jobs", static_cast<double>(s.jobs));
    add("mapreduce.tasks", sum_mr("_tasks"));
    add("mapreduce.attempts", sum_mr("_attempts"));
    add("mapreduce.retries", sum_mr("_retries"));
    add("mapreduce.task_cpu_s", s.task_s);
    add("mapreduce.shuffled_bytes", Get(c, "mr.shuffled_bytes"));
    add("mapreduce.job_overhead_ms", s.job_overhead_s * 1e3);
    add("stream.seal_batches", Get(c, "stream.seal_batches"));
    add("stream.windows_per_batch",
        Get(c, "stream.seal_batches") == 0.0
            ? 0.0
            : Get(c, "stream.windows_sealed") / Get(c, "stream.seal_batches"));
    add("stream.seal_s", s.seal_s);
    add("stream.incremental_s", s.incremental_s);
    add("stream.dirty_targets", Get(c, "stream.dirty_targets"));
  }
  // Measured only by some operations (the substrate timing, the dist ops,
  // the stream replays): 0, with no samples, where no op of this workload
  // measured them.
  for (const char* name :
       {"vsense.substrate_observations", "vsense.render_us",
        "vsense.histogram_us", "dist.tasks", "dist.payload_bytes",
        "dist.run_tasks_s", "dist.self_s", "dist.rpc_echo_us",
        "dist.cold_minus_warm_s", "stream.push_blocked_s",
        "stream.queue_depth_max", "stream.drain_pass_s", "stream.failed_pushes",
        "stream.generator_late_ms"}) {
    per_op[name];
  }
  for (const auto& [name, values] : per_op) {
    Put(m, name, MeanOf(values), "", values.size());
  }
  Put(m, "dataset.generate_s", Median(generate_s), "s", generate_s.size());
  const double untraced = MeanOf(ctx.untraced_walls);
  Put(m, "obs.trace_overhead_pct",
      untraced == 0.0 ? 0.0
                      : (MeanOf(ctx.traced_walls) / untraced - 1.0) * 100.0,
      "%", ctx.traced_walls.size());
  Put(m, "obs.traced_ops", static_cast<double>(main_ops), "count", main_ops);
  // A program span outside every op tree is time the layer metrics miss.
  const SpanForest::Orphans orphans = forest.FindOrphans();
  Put(m, "obs.orphan_spans", static_cast<double>(orphans.count), "count", 1);
  if (orphans.count != 0) {
    std::string names;
    for (const std::string& n : orphans.names) names += " " + n;
    ctx.tally.Fail(std::to_string(orphans.count) +
                   " spans escaped the op trees (" +
                   std::to_string(orphans.seconds) + " s):" + names);
  }

  std::filesystem::create_directories(ctx.opt.out_dir);
  const std::string base = ctx.opt.out_dir + "/trace-" + ctx.opt.workload_name +
                           "-seed" + std::to_string(ctx.opt.seed);
  if (!forest.Write(base + ".evm.json", base + ".chrome.json",
                    ctx.counter_totals)) {
    ctx.tally.Fail("could not write the trace files under " + ctx.opt.out_dir);
  }
  ctx.notes["trace.evm"] = base + ".evm.json";
  ctx.notes["trace.chrome"] = base + ".chrome.json";
}

}  // namespace

void RunBenchmark(const Options& options, Tally& tally, MetricMap& metrics,
                  std::map<std::string, std::string>& notes) {
  Ctx ctx{options, tally, metrics, notes};
  ctx.config = bench::PaperConfig(bench::kDefaultDensity, options.dataset_seed);
  if (options.population != 0) {
    ctx.config.population = options.population;
    ctx.config.ticks = 600;
    ctx.config.SetDensity(bench::kDefaultDensity);
  }
  obs::TraceRecorder recorder;
  if (options.trace) ctx.trace = &recorder;

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  const double setup_start = Now();
  for (int i = 0; i < kSetupSamples; ++i) {
    setup_s.push_back(SetupOnce(ctx, generate_s));
  }
  const double r0 = Now();
  Reference(ctx);
  notes["phase_s.reference"] = std::to_string(Now() - r0);
  notes["phase_s.setup"] = std::to_string(r0 - setup_start);
  notes["dataset.population"] = std::to_string(ctx.config.population);
  notes["dataset.seed"] = std::to_string(ctx.config.seed);
  notes["dataset.density"] = std::to_string(ctx.config.Density());
  notes["dataset.eids"] = std::to_string(ctx.targets.size());

  if (options.trace) {
    TracedPhase(ctx);
    LayerMetrics(ctx, generate_s);
    return;
  }
  Put(metrics, "setup_s", Median(setup_s), "s", setup_s.size());
  MixedRun(ctx);
}

}  // namespace e2e

// Span-tree analysis of the traced run: per-layer wall ownership, job
// overhead, and export as evm-trace-v1 plus Chrome trace-event JSON.
//
// Every span the traced run records — the benchmark's op spans and the
// program's own stage spans, read through MatcherConfig::trace and friends —
// lands in one TraceRecorder, so all share one clock. A span's layer comes
// from its name (and, for map/reduce tasks, from the job that ran them).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/error.hpp"
#include "e2e.hpp"
#include "obs/json_export.hpp"

namespace e2e {
namespace {

using evm::obs::SpanRecord;

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
bool IsTask(const std::string& name) { return EndsWith(name, ".task"); }
bool IsJob(const std::string& name) { return StartsWith(name, "mapreduce:"); }

double End(const SpanRecord& s) { return s.start_seconds + s.duration_seconds; }

/// Length of the union of [begin, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_begin = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [b, e] : intervals) {
    if (!open || b > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

}  // namespace

SpanForest::SpanForest(std::vector<SpanRecord> spans)
    : spans_(std::move(spans)), children_(spans_.size()) {
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0 && s.parent <= spans_.size()) {
      children_[s.parent - 1].push_back(s.id);
    }
  }
}

std::string SpanForest::LayerOf(std::uint32_t id) const {
  const std::string& name = At(id).name;
  if (StartsWith(name, "op.")) return "unattributed";
  if (name == "gallery.extract" || name == "vindex.build") return "vsense";
  if (name == "map.task" || name == "reduce.task") {
    // A split/merge job's tasks run the E-split itself; an extraction job's
    // tasks only wrap gallery.extract spans.
    for (std::uint32_t p = At(id).parent; p != 0; p = At(p).parent) {
      const std::string& job = At(p).name;
      if (!IsJob(job)) continue;
      return job.find("-window-") != std::string::npos ? "core" : "mapreduce";
    }
    return "mapreduce";
  }
  if (IsJob(name) || name == "map" || name == "reduce" || name == "shuffle" ||
      IsTask(name)) {
    return "mapreduce";
  }
  if (StartsWith(name, "stream.")) return "stream";
  if (StartsWith(name, "dist.")) return "dist";
  return "core";  // match, e-split, e-split.window, v-filter, v-filter.eid
}

std::uint32_t SpanForest::OpOf(std::uint32_t id) const {
  while (At(id).parent != 0) id = At(id).parent;
  return id;
}

SpanForest::Orphans SpanForest::FindOrphans() const {
  Orphans out;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0 || StartsWith(s.name, "op.")) continue;
    ++out.count;
    out.seconds += s.duration_seconds;
    if (out.names.size() < 4) out.names.push_back(s.name);
  }
  return out;
}

/// A span of a subtree, clipped to its parent's interval so that a child
/// never outlives the span that owns it.
struct SpanForest::Node {
  std::uint32_t id;
  int parent;  // index into the subtree, -1 for its root
  int depth;
  double begin;
  double end;
};

std::vector<SpanForest::Node> SpanForest::Subtree(std::uint32_t root) const {
  const SpanRecord& r = At(root);
  std::vector<Node> nodes;
  nodes.push_back({root, -1, 0, r.start_seconds, End(r)});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node n = nodes[i];
    for (const std::uint32_t c : children_[n.id - 1]) {
      const SpanRecord& s = At(c);
      const double b = std::max(s.start_seconds, n.begin);
      const double e = std::min(End(s), n.end);
      if (e <= b) continue;
      nodes.push_back({c, static_cast<int>(i), n.depth + 1, b, e});
    }
  }
  return nodes;
}

std::vector<double> SpanForest::Owned(const std::vector<Node>& nodes) {
  // Sweep over start/end events: starts parents-first, ends children-first
  // at ties. The open spans with no open child own the time between events.
  struct Event {
    double t;
    int kind;  // 0 = end, 1 = start
    int order;
    int node;
  };
  std::vector<Event> events;
  events.reserve(nodes.size() * 2);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    events.push_back({nodes[i].begin, 1, nodes[i].depth, static_cast<int>(i)});
    events.push_back({nodes[i].end, 0, -nodes[i].depth, static_cast<int>(i)});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.order < b.order;
  });
  std::vector<double> owned(nodes.size(), 0.0);
  std::vector<int> open_children(nodes.size(), 0);
  std::vector<bool> active(nodes.size(), false);
  std::vector<int> owners;
  double prev = nodes.front().begin;
  for (const Event& ev : events) {
    const double dt = ev.t - prev;
    if (dt > 0.0 && !owners.empty()) {
      const double share = dt / static_cast<double>(owners.size());
      for (const int o : owners) owned[o] += share;
    }
    prev = std::max(prev, ev.t);
    const int i = ev.node;
    const int p = nodes[i].parent;
    if (ev.kind == 1) {
      active[i] = true;
      owners.push_back(i);
      if (p >= 0 && active[p] && open_children[p]++ == 0) {
        owners.erase(std::find(owners.begin(), owners.end(), p));
      }
    } else {
      active[i] = false;
      const auto it = std::find(owners.begin(), owners.end(), i);
      if (it != owners.end()) owners.erase(it);
      if (p >= 0 && active[p] && --open_children[p] == 0) owners.push_back(p);
    }
  }
  return owned;
}

OpSpans SpanForest::Analyze(std::uint32_t root) const {
  OpSpans out;
  out.wall_s = At(root).duration_seconds;
  const std::vector<Node> nodes = Subtree(root);

  for (const Node& n : nodes) {
    const SpanRecord& s = At(n.id);
    const double d = n.end - n.begin;
    if (s.name == "e-split") out.split_s += d;
    if (s.name == "v-filter.eid") out.filter_eid_s += d;
    if (s.name == "gallery.extract") {
      out.extract_s += d;
      ++out.extract_blocks;
    }
    if (s.name == "stream.seal") out.seal_s += d;
    if (s.name == "stream.incremental") out.incremental_s += d;
    if (s.name == "dist.run_tasks") out.run_tasks_s += d;
    if (IsTask(s.name)) out.task_s += d;
    if (IsJob(s.name)) ++out.jobs;
  }

  // Job overhead: a MapReduce job span, or a span running a task set
  // directly (the filter stage's RunTasks), minus the union of the tasks and
  // nested jobs it ran.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string& name = At(nodes[i].id).name;
    bool runs_tasks = IsJob(name);
    for (const std::uint32_t c : children_[nodes[i].id - 1]) {
      runs_tasks = runs_tasks || IsTask(At(c).name);
    }
    if (!runs_tasks) continue;
    std::vector<std::pair<double, double>> covered;
    std::vector<std::uint32_t> stack(children_[nodes[i].id - 1]);
    while (!stack.empty()) {
      const std::uint32_t c = stack.back();
      stack.pop_back();
      const SpanRecord& s = At(c);
      if (IsTask(s.name) || IsJob(s.name)) {
        covered.emplace_back(std::max(s.start_seconds, nodes[i].begin),
                             std::min(End(s), nodes[i].end));
        continue;
      }
      for (const std::uint32_t g : children_[c - 1]) stack.push_back(g);
    }
    out.job_overhead_s +=
        (nodes[i].end - nodes[i].begin) - UnionLength(std::move(covered));
  }

  const std::vector<double> owned = Owned(nodes);
  double total = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out.self_s[LayerOf(nodes[i].id)] += owned[i];
    total += owned[i];
  }
  // The sweep hands every instant of the op to some node of its subtree.
  EVM_CHECK_MSG(
      std::abs(total - out.wall_s) <= 1e-6 * std::max(1.0, out.wall_s),
      "span ownership does not cover the op");
  return out;
}

bool SpanForest::Write(const std::string& evm_path,
                       const std::string& chrome_path,
                       const evm::obs::MetricsSnapshot& counters) const {
  {
    std::ofstream os(evm_path);
    if (!os) return false;
    evm::obs::WriteTraceJson(os, counters, spans_);
    if (!os) return false;
  }

  // Chrome trace events ("X" complete events). Spans of parallel tasks
  // overlap, so each goes to a lane (tid) where it nests properly: its
  // parent's lane when free, else the first lane that fits.
  std::vector<std::uint32_t> order;
  order.reserve(spans_.size());
  for (const SpanRecord& s : spans_) order.push_back(s.id);
  std::sort(order.begin(), order.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
    const SpanRecord& x = At(a);
    const SpanRecord& y = At(b);
    if (x.start_seconds != y.start_seconds) {
      return x.start_seconds < y.start_seconds;
    }
    return x.duration_seconds > y.duration_seconds;
  });
  std::vector<std::vector<std::uint32_t>> lanes;  // stacks of open span ids
  std::vector<std::size_t> lane_of(spans_.size() + 1, 0);
  const auto fits = [this](std::vector<std::uint32_t>& stack,
                           const SpanRecord& s) {
    while (!stack.empty() && End(At(stack.back())) <= s.start_seconds) {
      stack.pop_back();
    }
    return stack.empty() || End(At(stack.back())) >= End(s);
  };
  for (const std::uint32_t id : order) {
    const SpanRecord& s = At(id);
    std::size_t lane = lanes.size();
    if (s.parent != 0 && fits(lanes[lane_of[s.parent]], s)) {
      lane = lane_of[s.parent];
    } else {
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        if (fits(lanes[l], s)) {
          lane = l;
          break;
        }
      }
    }
    if (lane == lanes.size()) lanes.emplace_back();
    lanes[lane].push_back(id);
    lane_of[id] = lane;
  }

  // Self time from the same ownership sweep as the layer metrics.
  std::vector<double> self(spans_.size() + 1, 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) continue;
    const std::vector<Node> nodes = Subtree(s.id);
    const std::vector<double> owned = Owned(nodes);
    for (std::size_t i = 0; i < nodes.size(); ++i) self[nodes[i].id] = owned[i];
  }

  std::ofstream os(chrome_path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  lane_of[s.id] + 1, s.start_seconds * 1e6,
                  s.duration_seconds * 1e6);
    os << "  {\"name\": " << JsonQuote(s.name) << ", \"cat\": \""
       << LayerOf(s.id) << "\", " << buf << ", \"args\": {\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"op\": " << OpOf(s.id);
    std::snprintf(buf, sizeof(buf), ", \"self_us\": %.3f}}",
                  self[s.id] * 1e6);
    os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace e2e

#include "core/matcher.hpp"

#include <algorithm>
#include <unordered_set>

namespace evm {

EvMatcher::EvMatcher(const EScenarioSet& e_scenarios,
                     const VScenarioSet& v_scenarios,
                     const VisualOracle& oracle, MatcherConfig config)
    : e_scenarios_(e_scenarios),
      v_scenarios_(v_scenarios),
      config_(config),
      universe_(CollectUniverse(e_scenarios)),
      gallery_(oracle, &metrics(), config_.trace) {
  if (config_.execution == ExecutionMode::kMapReduce) {
    // The engine shares the matcher's registry/recorder unless the caller
    // wired its own, so mr.* counters land next to the match.* ones.
    if (config_.engine.metrics == nullptr) config_.engine.metrics = &metrics();
    if (config_.engine.trace == nullptr) config_.engine.trace = config_.trace;
    engine_ = std::make_unique<mapreduce::MapReduceEngine>(config_.engine);
  }
}

void EvMatcher::RunFilter(const std::vector<EidScenarioList>& lists,
                          std::vector<MatchResult>& results) {
  TaskRunnerFn run_tasks;
  if (engine_ != nullptr) {
    // Parallel V stage (paper Sec. V-C). Stage 1 fans feature extraction out
    // across mappers, one task per distinct selected scenario; results land
    // in the shared gallery (the "distributed storage" of the paper). Stage
    // 2 is one scheduler task per EID: each EID's selected V-Scenarios are
    // conveyed to the same worker, and the engine's fault tolerance
    // (retries, deadlines, speculative backups) covers the comparison work.
    run_tasks = [this, &lists](const std::vector<mapreduce::TaskFn>& tasks) {
      ExtractSelected(lists);
      engine_->RunTasks("ev-filter", "filter", tasks);
    };
  }
  RunFilterStage(lists, v_scenarios_, gallery_, config_.filter, results,
                 metrics(), config_.trace, run_tasks);
}

void EvMatcher::ExtractSelected(const std::vector<EidScenarioList>& lists) {
  std::unordered_set<std::uint64_t> distinct;
  for (const EidScenarioList& list : lists) {
    for (const ScenarioId id : list.scenarios) distinct.insert(id.value());
  }
  std::vector<std::uint64_t> scenario_ids(distinct.begin(), distinct.end());
  std::sort(scenario_ids.begin(), scenario_ids.end());
  const std::size_t reducers = std::max<std::size_t>(1, engine_->workers());
  engine_->Run<std::uint64_t, std::uint64_t, std::uint64_t>(
      "ev-extract-features", scenario_ids, reducers,
      [this](const std::uint64_t& id,
             mapreduce::Emitter<std::uint64_t, std::uint64_t>& emit) {
        const VScenario* scenario = v_scenarios_.Find(ScenarioId{id});
        if (scenario == nullptr || scenario->observations.empty()) return;
        emit(id, gallery_.Block(*scenario).rows());
      },
      [](const std::uint64_t&, std::vector<std::uint64_t>&&,
         std::vector<std::uint64_t>&) {});
}

MatchReport EvMatcher::Match(const std::vector<Eid>& targets) {
  return RunMatchPass(
      targets, config_.refine, config_.split.seed,
      [this](const std::vector<Eid>& subset, std::uint64_t seed) {
        SplitConfig split = config_.split;
        split.seed = seed;
        return RunSplitStage(e_scenarios_, split, universe_, subset,
                             metrics(), config_.trace);
      },
      [this](const std::vector<EidScenarioList>& lists,
             std::vector<MatchResult>& results) { RunFilter(lists, results); },
      metrics(), config_.trace);
}

MatchReport EvMatcher::MatchOne(Eid eid) { return Match({eid}); }

MatchReport EvMatcher::MatchUniversal() { return Match(universe_); }

}  // namespace evm

#pragma once
// EID set splitting — the E stage of EV-Matching (paper Sec. IV-B1/IV-C2).
//
// The partition of the EID universe starts as one undistinguishable set and
// is refined by E-Scenarios until every *target* EID sits alone. Each block
// carries the presence-scenario history of its members; a singleton block's
// history is exactly the distinguishing scenario list Theorem 4.1 constructs
// via the split tree.
//
// Two iteration modes are provided:
//
//  * kBinary — the literal Algorithm 1/2: scenarios are applied one at a
//    time and each effective scenario splits one set into (members in C,
//    members not in C). In the practical setting (paper Sec. IV-C2,
//    Theorem 4.3) EIDs that are vague — in the scenario or in the set — are
//    copied to both children with the vague attribute, and only EIDs
//    inclusive in both sides split off confidently.
//
//  * kWindowSignature — the semantics of the MapReduce parallelization
//    (Algorithm 3): all relevant scenarios of one randomly chosen time
//    window are applied at once, refining each set by its members'
//    scenario-membership signature. The paper computes this refinement
//    with (key, value) shuffles on a cluster; here it runs in-process,
//    which measured faster than map/shuffle/merge rounds on the thread
//    engine and yields the same partition. In the practical setting, vague
//    appearances are treated as absent (uncertain evidence never splits),
//    which slows convergence with the vague fraction exactly as Theorem
//    4.4 predicts.
//
// Scenario scheduling follows the paper's parallel driver: time windows are
// visited in a seeded random permutation and only scenarios containing at
// least one target EID are considered (the preprocess filter of
// Algorithm 3).

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "core/types.hpp"
#include "esense/e_scenario.hpp"
#include "obs/trace.hpp"

namespace evm {

enum class SplitMode {
  kBinary,
  kWindowSignature,
};

struct SplitConfig {
  SplitMode mode{SplitMode::kWindowSignature};
  /// Vague-aware splitting (paper practical setting).
  bool practical{false};
  /// Stop after this many windows even if targets remain undistinguished
  /// (0 = use every window once).
  std::size_t max_windows{0};
  /// Seed of the window visiting order.
  std::uint64_t seed{7};
};

struct SplitOutcome {
  /// One scenario list per target, in target order.
  std::vector<EidScenarioList> lists;
  /// Distinct scenarios recorded as effective across all targets, sorted.
  /// Reuse across targets is counted once (the metric of Figs. 5-6).
  std::vector<ScenarioId> recorded;
  /// Time windows consumed.
  std::size_t windows_consumed{0};
  /// Targets that could not be isolated with the available scenarios.
  std::size_t undistinguished{0};
};

/// All distinct EIDs appearing in a scenario set, sorted — the universe
/// U_eid of Algorithm 1.
[[nodiscard]] std::vector<Eid> CollectUniverse(const EScenarioSet& scenarios);

/// Guarantees each list carries at least `min_entries` presence scenarios by
/// appending (chronologically earliest) scenarios where the target appears
/// inclusively. An EID separated from its siblings purely by their absences
/// (e.g. the right child of every split) can end set splitting fully
/// distinguished yet with an empty list; the V stage, however, needs
/// scenarios in which the matching VID *appears* (Sec. IV-B2). Deterministic,
/// and applied identically by the sequential and MapReduce splitters.
void BackfillPresence(const EScenarioSet& scenarios,
                      std::vector<EidScenarioList>& lists,
                      std::size_t min_entries = 3);

namespace internal {
/// Tie-break predicate of the splitter's BestBlockFor: true when a candidate
/// block with `inclusive` inclusive members and `history_len` recorded
/// scenarios should replace the current best. Fewer inclusive members wins
/// (1 = fully distinguished); at equal counts the SHORTER history wins —
/// the history becomes the V stage's verification list, so an equally
/// distinguishing block with fewer scenarios means fewer feature
/// comparisons. Exposed for direct regression testing: the tie arm is
/// defensively unreachable through the public splitter API.
[[nodiscard]] bool PreferBlock(bool have_best, std::size_t inclusive,
                               std::size_t history_len,
                               std::size_t best_inclusive,
                               std::size_t best_history_len) noexcept;
}  // namespace internal

class SetSplitter {
 public:
  /// A non-null `trace` records an e-split.window span per consumed window.
  SetSplitter(const EScenarioSet& scenarios, SplitConfig config,
              obs::TraceRecorder* trace = nullptr);

  /// Distinguishes every EID of `targets` within `universe` (targets must be
  /// a subset of universe). Passing targets == universe performs the paper's
  /// universal matching.
  [[nodiscard]] SplitOutcome Run(const std::vector<Eid>& universe,
                                 const std::vector<Eid>& targets) const;

 private:
  const EScenarioSet& scenarios_;
  SplitConfig config_;
  obs::TraceRecorder* trace_{nullptr};
};

}  // namespace evm

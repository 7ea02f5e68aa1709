// Conditional scheduling of fault-tolerant applications into quasi-static
// schedule tables (DATE'08 Section 5).
//
// The generator walks the full fault-scenario tree (every distribution of
// at most k faults over the copies of the policy assignment) and simulates
// the distributed quasi-static execution of each scenario with one
// deterministic list-scheduling policy.  Determinism gives the quasi-static
// property for free: two scenarios that share a condition-history prefix
// make identical decisions up to the divergence point, so the per-scenario
// activations merge into consistent table columns.  Column guards are the
// intersection of the revealed condition values over all scenarios that
// produce the same activation -- exactly the minimal conjunctions of the
// paper's Fig. 6.
//
// Transparency (frozen processes/messages) is honoured by a fixpoint: the
// start of a frozen item is pinned to the maximum over all scenarios of its
// natural start, and scenarios are re-simulated until no pin moves.  Frozen
// messages are always transmitted on the bus (even between co-located
// processes) so their slot is observable in every scenario, as in the
// paper's Fig. 6 where frozen m3 occupies a bus slot at t = 120.
//
// Condition values are broadcast on the TDMA bus after the producing
// execution segment terminates (Section 5.2); remote nodes learn a copy's
// death only through such broadcasts.
//
// Cost: close to linear per scenario.  Everything scenario-independent is
// precomputed once per generation: per copy its dependency-slot offsets
// and condition ids, per message whether it needs the bus, per process its
// frozen outputs, and an integer key per table activation (node, row,
// label) whose order is the string order.  One scenario's simulation
// keeps a ready list of copies whose inputs are all resolved (each event
// scans it for the minimum of start, rank descending, copy index), a
// binary heap of pending transmissions keyed by (ready, emission order),
// and a flat bitmap of resolved (consumer copy, input, producer copy)
// slots, so a dependency resolves in O(1) and a frozen message is emitted
// by the commit that completes its producers.  Table extraction builds
// one guard per reveal-prefix length per trace, finds a record's guard by
// binary search on the reveal time, and folds columns in a hash map keyed
// by (integer key, start), intersecting guards by a linear merge; the
// columns are sorted once at the end, so the tables are the same for
// every thread count.
//
// Scope note: checkpointing/re-execution chains and frozen sync nodes are
// exact; consumers of *replicated* producers wait until every copy has
// either delivered or is known dead (the conservative join of DESIGN.md §4).
#pragma once

#include <map>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "fault/scenario.h"
#include "sched/schedule_table.h"
#include "util/cancellation.h"

namespace ftes {

class ThreadPool;

/// Execution of one copy within one scenario.
struct ExecTrace {
  CopyRef copy;
  Time start = 0;
  Time end = 0;  ///< completion (survived) or node-release on death
  bool died = false;
  int faults = 0;
  std::vector<Time> attempt_starts;  ///< absolute; [0] == start
};

/// One bus transmission within one scenario.
struct TxTrace {
  bool is_condition = false;
  MessageId msg;      ///< valid for data / frozen-sync transmissions
  int src_copy = -1;  ///< -1 for frozen-sync transmissions
  int cond_id = -1;   ///< valid for condition broadcasts
  bool value = false; ///< broadcast condition value
  NodeId sender;
  Time ready = 0;
  Time start = 0;
  Time finish = 0;
};

/// A revealed condition value (global timeline).
struct Reveal {
  int cond_id = -1;
  bool value = false;
  Time at = 0;
};

struct ScenarioTrace {
  FaultScenario scenario;
  std::vector<ExecTrace> execs;
  std::vector<TxTrace> txs;
  std::vector<Reveal> reveals;
  Time makespan = 0;
};

struct CondScheduleOptions {
  /// Guard against the exponential scenario tree.
  int max_scenarios = 200000;
  /// Fixpoint iteration cap for the frozen-start pinning.
  int max_fixpoint_iterations = 64;
  /// When false, transparency flags in the application are ignored
  /// (performance-optimal schedules; used as the 0%-frozen ablation point).
  bool respect_transparency = true;
  /// Schedule condition-value broadcasts on the bus (Section 5.2).  Turning
  /// them off models idealized signalling: remote nodes learn conditions
  /// (including copy deaths) instantly.  Used by ablations and by tests
  /// comparing against the WCSL DP, which ignores broadcast contention.
  bool schedule_condition_broadcasts = true;
  /// Concurrent per-scenario simulations / table-record extractions
  /// (1 = serial; 0 = all hardware threads).  Scenarios are independent
  /// within a fixpoint iteration and results are collected in scenario
  /// order, so the output is identical for every thread count.
  int threads = 1;
  /// Pool supplying the helper threads; nullptr = ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: polled per simulated scenario and per
  /// extracted trace.  Tables built from a scenario subset would be wrong
  /// (not partial), so the generator throws CancelledError when the token
  /// fires.  nullptr = never cancelled.
  CancellationToken* cancel = nullptr;
};

struct CondScheduleResult {
  ScheduleTables tables;
  std::vector<ScenarioTrace> traces;
  /// Worst-case completion over all scenarios.
  Time wcsl = 0;
  int scenario_count = 0;
  /// Pinned start of every frozen copy, keyed by display label.
  // lint: cold-path -- result metadata built once per schedule; ordered so
  // transparency reports print deterministically
  std::map<std::string, Time> frozen_starts;
};

[[nodiscard]] CondScheduleResult conditional_schedule(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment, const FaultModel& model,
    const CondScheduleOptions& options = {});

}  // namespace ftes

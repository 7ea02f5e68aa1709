// Shared incremental evaluation context of the design-space exploration.
//
// The tabu optimizers and the checkpoint refinement evaluate tens of
// thousands of candidates per run, each differing from an incumbent
// assignment in a single process plan.  Evaluating a candidate from
// scratch pays three times: a full PolicyAssignment copy per candidate, a
// full fault-free list schedule rebuild, and fresh storage for the
// augmented schedule DAG (sched/wcsl.h) and its budgeted-longest-path DP
// rows.  EvalContext removes or shrinks all three:
//
//   * Moves are expressed as (process, new ProcessPlan) against a cached
//     *base* assignment.  Per-thread workspaces materialize a candidate by
//     swapping the one plan in and out, so no full assignment is copied
//     per candidate.
//   * The base's list schedule is built once with a ScheduleCheckpointLog
//     (sched/list_scheduler.h); a candidate's schedule resumes from the
//     last snapshot that provably precedes any placement the move can
//     affect instead of replaying the whole event sequence.
//   * Each workspace builds the candidate's DAG (CSR form, topological
//     order included) into buffers it keeps across evaluations, with
//     build_wcsl_dag_into, and resizes -- never clears -- its DP rows, so
//     a warmed-up workspace runs the full DP without allocating DAG or row
//     storage.
//
// A rebase() builds the new base's list schedule and checkpoint log from
// scratch and runs the same full DP on it; the base keeps only its
// assignment, schedule and log.
//
// Results are bit-identical to a from-scratch evaluation: the resumed list
// schedule is exact by construction (property-tested against full
// rebuilds), and the DP is the one evaluate_wcsl runs.  EvalStats reports
// how much of the list-schedule work the snapshot resumes served.
//
// Thread safety: evaluate_move / fault_free_makespan may run concurrently
// (the parallel neighborhood evaluation relies on this); rebase /
// rebase_fault_free must not race with in-flight evaluations.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "opt/eval_stats.h"
#include "sched/list_scheduler.h"
#include "sched/wcsl.h"

namespace ftes {

class EvalContext {
 public:
  /// The referenced application/architecture must outlive the context.
  EvalContext(const Application& app, const Architecture& arch,
              FaultModel model);

  struct Outcome {
    Time makespan = 0;  ///< analytic WCSL makespan
    Time cost = 0;      ///< makespan + soft local-deadline penalties
  };

  /// Rebuilds the cached schedule and checkpoint log for `base` from
  /// scratch and returns its WCSL outcome.  Invalidates workspaces lazily.
  /// The ProcessId argument is ignored; it stays because
  /// perfbench/src/traced.cpp calls rebase(base, pid).
  Outcome rebase(const PolicyAssignment& base, ProcessId = {});

  /// Same cached base as rebase() without the WCSL analysis of `base`
  /// itself; returns the base's own fault-free makespan.
  Time rebase_fault_free(const PolicyAssignment& base);

  /// WCSL outcome of base-with-plan(pid)-replaced-by-plan; its schedule
  /// resumes from the base's checkpoint log.  Requires a prior rebase() or
  /// rebase_fault_free().
  [[nodiscard]] Outcome evaluate_move(ProcessId pid, const ProcessPlan& plan);

  /// Fault-free list-schedule makespan of the same move (the mapping
  /// optimizer's objective).  Same precondition as evaluate_move.
  [[nodiscard]] Time fault_free_makespan(ProcessId pid,
                                         const ProcessPlan& plan);

  /// Non-incremental evaluate_wcsl of an arbitrary assignment
  /// (stats-counted).
  [[nodiscard]] WcslResult evaluate_full(const PolicyAssignment& assignment);

  [[nodiscard]] const PolicyAssignment& base() const { return base_; }
  [[nodiscard]] const FaultModel& model() const { return model_; }

  /// Snapshot of the (atomic) counters; safe to call concurrently.
  [[nodiscard]] EvalStats stats() const;

 private:
  struct Workspace {
    PolicyAssignment assignment;
    std::uint64_t version = 0;
    ListSchedule sched;
    WcslDag dag;
    CsrDag::EdgeList dag_edges;  ///< build scratch
    std::vector<std::vector<Time>> L;
    std::vector<Time> process_finish;
  };

  [[nodiscard]] std::unique_ptr<Workspace> acquire();
  void put_back(std::unique_ptr<Workspace> ws);

  /// Applies plan to the workspace's base copy, runs `body(ws)`, restores.
  template <class Body>
  auto with_move(ProcessId pid, const ProcessPlan& plan, const Body& body);

  /// Builds the DAG of (assignment, sched) into `ws`, runs the full DP
  /// over it and returns the makespan and penalized cost.
  [[nodiscard]] Outcome wcsl_outcome(Workspace& ws,
                                     const PolicyAssignment& assignment,
                                     const ListSchedule& sched) const;
  void record_resume_stats(const ListScheduleResumeStats& stats);
  /// Caches `base` with a from-scratch schedule + checkpoint log.
  void rebuild_base(const PolicyAssignment& base);

  const Application& app_;
  const Architecture& arch_;
  FaultModel model_;

  // Cached base: assignment, its fault-free schedule + checkpoint log.
  PolicyAssignment base_;
  std::uint64_t version_ = 0;
  bool has_base_ = false;
  ListSchedule base_sched_;
  ScheduleCheckpointLog base_log_;

  std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> idle_ws_;

  std::atomic<long long> evaluations_{0};
  std::atomic<long long> full_evals_{0};
  std::atomic<long long> incremental_evals_{0};
  std::atomic<long long> fault_free_evals_{0};
  std::atomic<long long> rebases_{0};
  std::atomic<long long> ls_full_builds_{0};
  std::atomic<long long> ls_resumes_{0};
  std::atomic<long long> ls_events_total_{0};
  std::atomic<long long> ls_events_resumed_{0};
  std::atomic<long long> heap_pops_{0};
  std::atomic<long long> snapshot_bytes_copied_{0};
};

}  // namespace ftes

// Shared incremental evaluation context of the design-space exploration.
//
// The tabu optimizers and the checkpoint refinement evaluate tens of
// thousands of candidates per run, each differing from an incumbent
// assignment in a single process plan.  Evaluating a candidate from
// scratch pays four times: a full PolicyAssignment copy per candidate, a
// full fault-free list schedule rebuild, a fresh augmented schedule DAG
// (sched/wcsl.h) with its topological order, and a full
// budgeted-longest-path DP over it.  EvalContext removes or shrinks all
// four:
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
//     a warmed-up workspace evaluates without allocating DAG or row
//     storage.
//   * The base's DP rows are cached.  A candidate's augmented DAG is
//     diffed against the base's: a vertex whose release, weight table and
//     predecessor set are unchanged, and whose predecessors are all clean,
//     reuses the cached row; everything downstream of a change is
//     recomputed (dirty-successor propagation).
//
// A rebase() builds the new base from scratch: its list schedule with a
// fresh checkpoint log, its DAG, all of its DP rows, and the diff lookups.
//
// Results are bit-identical to a from-scratch evaluation: the resumed list
// schedule is exact by construction (property-tested against full
// rebuilds), and a reused row equals the row the full DP would compute
// (the same integer recurrence on inputs proven equal by the diff).
// EvalStats reports the reuse rates of both layers.
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

  /// Recomputes the cached schedule, checkpoint log, DAG and DP for `base`
  /// from scratch and returns its outcome.  Invalidates workspaces lazily.
  /// The ProcessId argument is ignored; it stays because
  /// perfbench/src/traced.cpp calls rebase(base, pid).
  Outcome rebase(const PolicyAssignment& base, ProcessId = {});

  /// Caches `base` for fault-free (list-schedule makespan) move evaluation
  /// only; builds the base schedule + checkpoint log but no DP.  Returns
  /// the base's own fault-free makespan.
  Time rebase_fault_free(const PolicyAssignment& base);

  /// WCSL outcome of base-with-plan(pid)-replaced-by-plan, evaluated
  /// incrementally against the cached DP.  Requires a prior rebase().
  [[nodiscard]] Outcome evaluate_move(ProcessId pid, const ProcessPlan& plan);

  /// Fault-free list-schedule makespan of the same move (the mapping
  /// optimizer's objective).  Requires any prior rebase.
  [[nodiscard]] Time fault_free_makespan(ProcessId pid,
                                         const ProcessPlan& plan);

  /// Evaluation of an arbitrary assignment (stats-counted).  Served
  /// entirely from the cached base DP when `assignment` equals the current
  /// base; non-incremental otherwise.
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
    std::vector<int> to_base;
    std::vector<char> clean;
    std::vector<int> mapped_preds;
    std::vector<Time> process_finish;
  };

  [[nodiscard]] std::unique_ptr<Workspace> acquire();
  void put_back(std::unique_ptr<Workspace> ws);

  /// Applies plan to the workspace's base copy, runs `body(ws)`, restores.
  template <class Body>
  auto with_move(ProcessId pid, const ProcessPlan& plan, const Body& body);

  [[nodiscard]] Outcome incremental_outcome(Workspace& ws, ProcessId pid);
  void record_resume_stats(const ListScheduleResumeStats& stats);
  /// Rebuilds base_sched_ + base_log_ for `base` from scratch.
  void rebuild_base_schedule(const PolicyAssignment& base);
  void rebuild_base_lookups();
  [[nodiscard]] Outcome outcome_from_base_rows() const;
  [[nodiscard]] Time penalized_cost(const std::vector<Time>& process_finish,
                                    Time makespan) const;

  const Application& app_;
  const Architecture& arch_;
  FaultModel model_;

  // Cached base: assignment, its fault-free schedule + checkpoint log,
  // augmented DAG, DP rows, and lookup structures for the candidate diff.
  PolicyAssignment base_;
  std::uint64_t version_ = 0;
  bool base_has_dp_ = false;
  bool base_has_log_ = false;
  ListSchedule base_sched_;
  ScheduleCheckpointLog base_log_;
  WcslDag base_dag_;
  CsrDag::EdgeList base_dag_edges_;
  std::vector<std::vector<Time>> base_L_;
  // (message, source copy) -> base transmission vertex via prefix offsets
  // over the *base* plan shapes; -1 for keys absent from the base schedule.
  // (The copy-side lookup needs no table: copy vertices are prefix-indexed
  // by construction, see ListSchedule::first_copy.)
  std::vector<int> base_first_tx_;
  std::vector<int> base_msg_vertex_;

  std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> idle_ws_;

  std::atomic<long long> evaluations_{0};
  std::atomic<long long> full_evals_{0};
  std::atomic<long long> incremental_evals_{0};
  std::atomic<long long> fault_free_evals_{0};
  std::atomic<long long> rebases_{0};
  std::atomic<long long> dp_vertices_total_{0};
  std::atomic<long long> dp_vertices_reused_{0};
  std::atomic<long long> ls_full_builds_{0};
  std::atomic<long long> ls_resumes_{0};
  std::atomic<long long> ls_events_total_{0};
  std::atomic<long long> ls_events_resumed_{0};
  std::atomic<long long> heap_pops_{0};
  std::atomic<long long> snapshot_bytes_copied_{0};
};

}  // namespace ftes

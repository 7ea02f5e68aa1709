// Counters of the incremental evaluation context (opt/eval_context.h),
// kept in a tiny header so optimizer result structs can embed them without
// pulling in the evaluator itself.
//
// `evaluations` counts objective evaluations of any kind; the remaining
// counters break down how they were served.  The one cache layer is the
// list-schedule checkpoint log: a resumed event is a copy/transmission
// placement served by a base snapshot instead of replayed.  Every move
// evaluation runs the full WCSL DP, and every rebase rebuilds the base's
// schedule and log from scratch.
#pragma once

namespace ftes {

struct EvalStats {
  long long evaluations = 0;        ///< objective evaluations, any kind
  long long full_evals = 0;         ///< complete list-schedule + DP runs
  long long incremental_evals = 0;  ///< move evals against the cached base
  long long fault_free_evals = 0;   ///< list-schedule-only makespan evals
  long long rebases = 0;            ///< base recomputations

  // List-scheduler incrementality (move evaluations only; rebases always
  // build the base schedule from scratch).
  long long ls_full_builds = 0;     ///< move schedules built from scratch
  long long ls_resumes = 0;         ///< move schedules resumed from a snapshot
  long long ls_events_total = 0;    ///< placement events move schedules needed
  long long ls_events_resumed = 0;  ///< of those, served by snapshot prefixes
  long long heap_pops = 0;          ///< ready/tx queue pops in move schedules

  /// Bytes of the checkpoint-log snapshots every rebase rebuilt
  /// (snapshot_bytes() summed over the new base's log).
  long long snapshot_bytes_copied = 0;

  // Always 0, never summed: perfbench/src/traced.cpp reads these.
  long long rebase_cache_hits = 0;
  long long snapshot_refs_shared = 0;
  [[nodiscard]] double dp_reuse_fraction() const { return 0.0; }

  /// Fraction of list-schedule placement events served by snapshot resumes.
  [[nodiscard]] double ls_resume_fraction() const {
    return ls_events_total > 0
               ? static_cast<double>(ls_events_resumed) /
                     static_cast<double>(ls_events_total)
               : 0.0;
  }

  void add(const EvalStats& other) {
    evaluations += other.evaluations;
    full_evals += other.full_evals;
    incremental_evals += other.incremental_evals;
    fault_free_evals += other.fault_free_evals;
    rebases += other.rebases;
    ls_full_builds += other.ls_full_builds;
    ls_resumes += other.ls_resumes;
    ls_events_total += other.ls_events_total;
    ls_events_resumed += other.ls_events_resumed;
    heap_pops += other.heap_pops;
    snapshot_bytes_copied += other.snapshot_bytes_copied;
  }

  /// Counter deltas since `earlier` (used to attribute a shared context's
  /// work to one optimizer run / pipeline stage).
  [[nodiscard]] EvalStats since(const EvalStats& earlier) const {
    EvalStats d = *this;
    d.evaluations -= earlier.evaluations;
    d.full_evals -= earlier.full_evals;
    d.incremental_evals -= earlier.incremental_evals;
    d.fault_free_evals -= earlier.fault_free_evals;
    d.rebases -= earlier.rebases;
    d.ls_full_builds -= earlier.ls_full_builds;
    d.ls_resumes -= earlier.ls_resumes;
    d.ls_events_total -= earlier.ls_events_total;
    d.ls_events_resumed -= earlier.ls_events_resumed;
    d.heap_pops -= earlier.heap_pops;
    d.snapshot_bytes_copied -= earlier.snapshot_bytes_copied;
    return d;
  }
};

}  // namespace ftes

#include "opt/eval_context.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ftes {

EvalContext::EvalContext(const Application& app, const Architecture& arch,
                         FaultModel model)
    : app_(app), arch_(arch), model_(model) {
  model_.validate();
}

std::unique_ptr<EvalContext::Workspace> EvalContext::acquire() {
  {
    std::lock_guard<std::mutex> lock(ws_mutex_);
    if (!idle_ws_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(idle_ws_.back());
      idle_ws_.pop_back();
      return ws;
    }
  }
  return std::make_unique<Workspace>();
}

void EvalContext::put_back(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(ws_mutex_);
  idle_ws_.push_back(std::move(ws));
}

template <class Body>
auto EvalContext::with_move(ProcessId pid, const ProcessPlan& plan,
                            const Body& body) {
  std::unique_ptr<Workspace> ws = acquire();
  if (ws->version != version_) {
    ws->assignment = base_;
    ws->version = version_;
  }
  ProcessPlan saved = std::move(ws->assignment.plan(pid));
  ws->assignment.plan(pid) = plan;
  try {
    auto result = body(*ws);
    ws->assignment.plan(pid) = std::move(saved);
    put_back(std::move(ws));
    return result;
  } catch (...) {
    ws->assignment.plan(pid) = std::move(saved);
    put_back(std::move(ws));
    throw;
  }
}

EvalContext::Outcome EvalContext::wcsl_outcome(
    Workspace& ws, const PolicyAssignment& assignment,
    const ListSchedule& sched) const {
  const int k = model_.k;
  build_wcsl_dag_into(ws.dag, ws.dag_edges, app_, arch_, assignment, k,
                      sched);
  const WcslDag& dag = ws.dag;
  const int total = dag.g.vertex_count();
  ws.L.resize(static_cast<std::size_t>(total));  // rows keep their capacity
  for (int v : dag.g.topological_order()) {
    wcsl_dp_row(dag, v, ws.L, k, ws.L[static_cast<std::size_t>(v)]);
  }

  Outcome out;
  ws.process_finish.assign(static_cast<std::size_t>(app_.process_count()), 0);
  for (int v = 0; v < total; ++v) {
    const Time worst =
        ws.L[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    out.makespan = std::max(out.makespan, worst);
    if (v < dag.copy_count) {
      Time& pf = ws.process_finish[static_cast<std::size_t>(
          sched.copies[static_cast<std::size_t>(v)].ref.process.get())];
      pf = std::max(pf, worst);
    }
  }
  out.cost = out.makespan;
  for (int i = 0; i < app_.process_count(); ++i) {
    const Process& p = app_.process(ProcessId{i});
    if (p.local_deadline) {
      const Time miss =
          ws.process_finish[static_cast<std::size_t>(i)] - *p.local_deadline;
      if (miss > 0) out.cost += 10 * miss;  // mirror of assignment_cost()
    }
  }
  return out;
}

void EvalContext::rebuild_base(const PolicyAssignment& base) {
  base_sched_ = list_schedule(app_, arch_, base, base_log_);
  long long bytes = 0;
  for (const ScheduleSnapshot& snap : base_log_.snapshots) {
    bytes += static_cast<long long>(snapshot_bytes(snap));
  }
  snapshot_bytes_copied_.fetch_add(bytes, std::memory_order_relaxed);
  base_ = base;
  ++version_;
  has_base_ = true;
  rebases_.fetch_add(1, std::memory_order_relaxed);
}

EvalContext::Outcome EvalContext::rebase(const PolicyAssignment& base,
                                         ProcessId) {
  rebuild_base(base);
  std::unique_ptr<Workspace> ws = acquire();
  const Outcome out = wcsl_outcome(*ws, base_, base_sched_);
  put_back(std::move(ws));
  return out;
}

Time EvalContext::rebase_fault_free(const PolicyAssignment& base) {
  rebuild_base(base);
  return base_sched_.makespan;
}

void EvalContext::record_resume_stats(const ListScheduleResumeStats& stats) {
  (stats.resumed ? ls_resumes_ : ls_full_builds_)
      .fetch_add(1, std::memory_order_relaxed);
  ls_events_total_.fetch_add(static_cast<long long>(stats.events_total),
                             std::memory_order_relaxed);
  ls_events_resumed_.fetch_add(static_cast<long long>(stats.events_resumed),
                               std::memory_order_relaxed);
  heap_pops_.fetch_add(static_cast<long long>(stats.heap_pops),
                       std::memory_order_relaxed);
}

EvalContext::Outcome EvalContext::evaluate_move(ProcessId pid,
                                                const ProcessPlan& plan) {
  if (!has_base_) {
    throw std::logic_error("EvalContext::evaluate_move without rebase");
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  incremental_evals_.fetch_add(1, std::memory_order_relaxed);
  return with_move(pid, plan, [&](Workspace& ws) {
    ListScheduleResumeStats rstats;
    ws.sched = list_schedule_resume(app_, arch_, base_, base_log_,
                                    ws.assignment, pid, &rstats);
    record_resume_stats(rstats);
    return wcsl_outcome(ws, ws.assignment, ws.sched);
  });
}

Time EvalContext::fault_free_makespan(ProcessId pid, const ProcessPlan& plan) {
  if (!has_base_) {
    throw std::logic_error("EvalContext::fault_free_makespan without rebase");
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  fault_free_evals_.fetch_add(1, std::memory_order_relaxed);
  return with_move(pid, plan, [&](Workspace& ws) {
    ListScheduleResumeStats rstats;
    const Time makespan =
        list_schedule_resume(app_, arch_, base_, base_log_, ws.assignment,
                             pid, &rstats)
            .makespan;
    record_resume_stats(rstats);
    return makespan;
  });
}

WcslResult EvalContext::evaluate_full(const PolicyAssignment& assignment) {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  full_evals_.fetch_add(1, std::memory_order_relaxed);
  return evaluate_wcsl(app_, arch_, assignment, model_);
}

EvalStats EvalContext::stats() const {
  EvalStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.full_evals = full_evals_.load(std::memory_order_relaxed);
  s.incremental_evals = incremental_evals_.load(std::memory_order_relaxed);
  s.fault_free_evals = fault_free_evals_.load(std::memory_order_relaxed);
  s.rebases = rebases_.load(std::memory_order_relaxed);
  s.ls_full_builds = ls_full_builds_.load(std::memory_order_relaxed);
  s.ls_resumes = ls_resumes_.load(std::memory_order_relaxed);
  s.ls_events_total = ls_events_total_.load(std::memory_order_relaxed);
  s.ls_events_resumed = ls_events_resumed_.load(std::memory_order_relaxed);
  s.heap_pops = heap_pops_.load(std::memory_order_relaxed);
  s.snapshot_bytes_copied =
      snapshot_bytes_copied_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ftes

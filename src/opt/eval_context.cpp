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

Time EvalContext::penalized_cost(const std::vector<Time>& process_finish,
                                 Time makespan) const {
  Time cost = makespan;
  for (int i = 0; i < app_.process_count(); ++i) {
    const Process& p = app_.process(ProcessId{i});
    if (p.local_deadline) {
      const Time miss =
          process_finish[static_cast<std::size_t>(i)] - *p.local_deadline;
      if (miss > 0) cost += 10 * miss;  // mirror of assignment_cost()
    }
  }
  return cost;
}

void EvalContext::rebuild_base_lookups() {
  base_first_tx_.assign(static_cast<std::size_t>(app_.message_count()) + 1, 0);
  for (int mi = 0; mi < app_.message_count(); ++mi) {
    base_first_tx_[static_cast<std::size_t>(mi) + 1] =
        base_first_tx_[static_cast<std::size_t>(mi)] +
        base_.plan(app_.message(MessageId{mi}).src).copy_count();
  }
  base_msg_vertex_.assign(
      static_cast<std::size_t>(
          base_first_tx_[static_cast<std::size_t>(app_.message_count())]),
      -1);
  for (int m = 0; m < base_dag_.msg_count; ++m) {
    const ScheduledMessage& sm =
        base_sched_.messages[static_cast<std::size_t>(m)];
    base_msg_vertex_[static_cast<std::size_t>(
        base_first_tx_[static_cast<std::size_t>(sm.msg.get())] +
        sm.src_copy)] = base_dag_.msg_vertex(m);
  }
}

EvalContext::Outcome EvalContext::outcome_from_base_rows() const {
  const int k = model_.k;
  Outcome out;
  std::vector<Time> process_finish(
      static_cast<std::size_t>(app_.process_count()), 0);
  for (int v = 0; v < base_dag_.g.vertex_count(); ++v) {
    const Time worst =
        base_L_[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    out.makespan = std::max(out.makespan, worst);
    if (v < base_dag_.copy_count) {
      Time& pf = process_finish[static_cast<std::size_t>(
          base_sched_.copies[static_cast<std::size_t>(v)].ref.process.get())];
      pf = std::max(pf, worst);
    }
  }
  out.cost = penalized_cost(process_finish, out.makespan);
  return out;
}

void EvalContext::rebuild_base_schedule(const PolicyAssignment& base) {
  base_sched_ = list_schedule(app_, arch_, base, base_log_);
  long long bytes = 0;
  for (const ScheduleSnapshot& snap : base_log_.snapshots) {
    bytes += static_cast<long long>(snapshot_bytes(snap));
  }
  snapshot_bytes_copied_.fetch_add(bytes, std::memory_order_relaxed);
  base_has_log_ = true;
}

EvalContext::Outcome EvalContext::rebase(const PolicyAssignment& base,
                                         ProcessId) {
  const int k = model_.k;
  rebuild_base_schedule(base);
  base_ = base;
  ++version_;
  build_wcsl_dag_into(base_dag_, base_dag_edges_, app_, arch_, base_, k,
                      base_sched_);
  base_L_.resize(static_cast<std::size_t>(base_dag_.g.vertex_count()));
  for (int v : base_dag_.g.topological_order()) {
    wcsl_dp_row(base_dag_, v, base_L_, k, base_L_[static_cast<std::size_t>(v)]);
  }
  rebuild_base_lookups();
  base_has_dp_ = true;
  rebases_.fetch_add(1, std::memory_order_relaxed);
  return outcome_from_base_rows();
}

Time EvalContext::rebase_fault_free(const PolicyAssignment& base) {
  base_has_dp_ = false;
  rebuild_base_schedule(base);
  base_ = base;
  ++version_;
  rebases_.fetch_add(1, std::memory_order_relaxed);
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

EvalContext::Outcome EvalContext::incremental_outcome(Workspace& ws,
                                                      ProcessId pid) {
  const int k = model_.k;
  ListScheduleResumeStats rstats;
  ws.sched = list_schedule_resume(app_, arch_, base_, base_log_,
                                  ws.assignment, pid, &rstats);
  record_resume_stats(rstats);
  build_wcsl_dag_into(ws.dag, ws.dag_edges, app_, arch_, ws.assignment, k,
                      ws.sched);
  const ListSchedule& sched = ws.sched;
  const WcslDag& dag = ws.dag;
  const int total = dag.g.vertex_count();

  // Map candidate vertices onto base vertices by identity key: copies by
  // (process, copy) -- prefix arithmetic on both sides -- transmissions by
  // (message, source copy).  A remap or policy move may create or drop
  // vertices; unmapped ones are dirty.
  ws.to_base.assign(static_cast<std::size_t>(total), -1);
  for (int i = 0; i < dag.copy_count; ++i) {
    const ScheduledCopy& sc = sched.copies[static_cast<std::size_t>(i)];
    if (sc.ref.copy < base_.plan(sc.ref.process).copy_count()) {
      ws.to_base[static_cast<std::size_t>(i)] =
          base_sched_.first_copy[static_cast<std::size_t>(
              sc.ref.process.get())] +
          sc.ref.copy;
    }
  }
  for (int m = 0; m < dag.msg_count; ++m) {
    const ScheduledMessage& sm = sched.messages[static_cast<std::size_t>(m)];
    const std::int32_t mi = sm.msg.get();
    if (sm.src_copy <
        base_.plan(app_.message(sm.msg).src).copy_count()) {
      ws.to_base[static_cast<std::size_t>(dag.msg_vertex(m))] =
          base_msg_vertex_[static_cast<std::size_t>(
              base_first_tx_[static_cast<std::size_t>(mi)] + sm.src_copy)];
    }
  }

  ws.L.resize(static_cast<std::size_t>(total));  // rows keep their capacity
  ws.clean.assign(static_cast<std::size_t>(total), 0);
  long long reused = 0;
  for (int v : dag.g.topological_order()) {
    const int u = ws.to_base[static_cast<std::size_t>(v)];
    bool reusable =
        u >= 0 &&
        dag.release[static_cast<std::size_t>(v)] ==
            base_dag_.release[static_cast<std::size_t>(u)] &&
        std::equal(dag.weight_row(v), dag.weight_row(v) + k + 1,
                   base_dag_.weight_row(u));
    if (reusable) {
      // CsrDag predecessor rows are sorted ascending by id; only the mapped
      // candidate row needs sorting.
      const CsrDag::Span preds = dag.g.predecessors(v);
      const CsrDag::Span base_preds = base_dag_.g.predecessors(u);
      reusable = preds.size() == base_preds.size();
      if (reusable) {
        ws.mapped_preds.clear();
        for (int p : preds) {
          const int bp = ws.to_base[static_cast<std::size_t>(p)];
          if (bp < 0 || !ws.clean[static_cast<std::size_t>(p)]) {
            reusable = false;
            break;
          }
          ws.mapped_preds.push_back(bp);
        }
        if (reusable) {
          std::sort(ws.mapped_preds.begin(), ws.mapped_preds.end());
          reusable = std::equal(ws.mapped_preds.begin(),
                                ws.mapped_preds.end(), base_preds.begin());
        }
      }
    }
    if (reusable) {
      ws.L[static_cast<std::size_t>(v)] = base_L_[static_cast<std::size_t>(u)];
      ws.clean[static_cast<std::size_t>(v)] = 1;
      ++reused;
    } else {
      wcsl_dp_row(dag, v, ws.L, k, ws.L[static_cast<std::size_t>(v)]);
    }
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
  out.cost = penalized_cost(ws.process_finish, out.makespan);

  dp_vertices_total_.fetch_add(total, std::memory_order_relaxed);
  dp_vertices_reused_.fetch_add(reused, std::memory_order_relaxed);
  return out;
}

EvalContext::Outcome EvalContext::evaluate_move(ProcessId pid,
                                                const ProcessPlan& plan) {
  if (!base_has_dp_) {
    throw std::logic_error("EvalContext::evaluate_move without rebase()");
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  incremental_evals_.fetch_add(1, std::memory_order_relaxed);
  return with_move(pid, plan, [&](Workspace& ws) {
    return incremental_outcome(ws, pid);
  });
}

Time EvalContext::fault_free_makespan(ProcessId pid, const ProcessPlan& plan) {
  if (!base_has_log_) {
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
  if (base_has_dp_ && assignment.process_count() == base_.process_count()) {
    bool same = true;
    for (int i = 0; i < assignment.process_count() && same; ++i) {
      same = assignment.plan(ProcessId{i}) == base_.plan(ProcessId{i});
    }
    if (same) {
      // The final analysis of an optimizer's accepted base: every DP row is
      // already cached, so only the result extraction remains.
      const int total = base_dag_.g.vertex_count();
      dp_vertices_total_.fetch_add(total, std::memory_order_relaxed);
      dp_vertices_reused_.fetch_add(total, std::memory_order_relaxed);
      return wcsl_result_from_rows(app_, base_sched_, base_dag_, base_L_,
                                   model_.k);
    }
  }
  return evaluate_wcsl(app_, arch_, assignment, model_);
}

EvalStats EvalContext::stats() const {
  EvalStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.full_evals = full_evals_.load(std::memory_order_relaxed);
  s.incremental_evals = incremental_evals_.load(std::memory_order_relaxed);
  s.fault_free_evals = fault_free_evals_.load(std::memory_order_relaxed);
  s.rebases = rebases_.load(std::memory_order_relaxed);
  s.dp_vertices_total = dp_vertices_total_.load(std::memory_order_relaxed);
  s.dp_vertices_reused = dp_vertices_reused_.load(std::memory_order_relaxed);
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

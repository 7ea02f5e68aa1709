#include "sched/wcsl.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "fault/recovery.h"

namespace ftes {

bool WcslResult::meets_deadlines(const Application& app) const {
  if (makespan > app.deadline()) return false;
  for (int i = 0; i < app.process_count(); ++i) {
    const Process& p = app.process(ProcessId{i});
    if (p.local_deadline &&
        process_finish[static_cast<std::size_t>(i)] > *p.local_deadline) {
      return false;
    }
  }
  return true;
}

void CsrDag::assign(int vertex_count, const EdgeList& edges) {
  const std::size_t n = static_cast<std::size_t>(vertex_count);
  // Counting sort of the edges by source (stable: edge-list order), then by
  // destination walking the sources in ascending order -- which is what
  // sorts every predecessor row.  Counts go to first[v + 2] so that the
  // placement cursor first[v + 1]++ ends exactly at the row boundaries.
  const auto count_rows = [&](std::vector<int>& first, bool by_source) {
    first.assign(n + 2, 0);
    for (const auto& [from, to] : edges) {
      ++first[static_cast<std::size_t>(by_source ? from : to) + 2];
    }
    for (std::size_t i = 2; i < n + 2; ++i) first[i] += first[i - 1];
  };
  count_rows(succ_first_, true);
  succs_.resize(edges.size());
  for (const auto& [from, to] : edges) {
    succs_[static_cast<std::size_t>(
        succ_first_[static_cast<std::size_t>(from) + 1]++)] = to;
  }
  count_rows(pred_first_, false);
  preds_.resize(edges.size());
  for (std::size_t u = 0; u < n; ++u) {
    for (int i = succ_first_[u]; i < succ_first_[u + 1]; ++i) {
      const std::size_t to = static_cast<std::size_t>(
          succs_[static_cast<std::size_t>(i)]);
      preds_[static_cast<std::size_t>(pred_first_[to + 1]++)] =
          static_cast<int>(u);
    }
  }
  succ_first_.pop_back();
  pred_first_.pop_back();

  // Kahn with a FIFO queue (the order itself), sources in ascending id.
  indegree_.resize(n);
  order_.clear();
  for (std::size_t v = 0; v < n; ++v) {
    indegree_[v] = pred_first_[v + 1] - pred_first_[v];
    if (indegree_[v] == 0) order_.push_back(static_cast<int>(v));
  }
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const std::size_t v = static_cast<std::size_t>(order_[head]);
    for (int i = succ_first_[v]; i < succ_first_[v + 1]; ++i) {
      const int s = succs_[static_cast<std::size_t>(i)];
      if (--indegree_[static_cast<std::size_t>(s)] == 0) order_.push_back(s);
    }
  }
  if (order_.size() != n) {
    order_.clear();
    throw std::invalid_argument("schedule DAG has a cycle");
  }
}

void build_wcsl_dag_into(WcslDag& a, CsrDag::EdgeList& edges,
                         const Application& app, const Architecture& arch,
                         const PolicyAssignment& assignment, int k,
                         const ListSchedule& schedule) {
  a.copy_count = static_cast<int>(schedule.copies.size());
  a.msg_count = static_cast<int>(schedule.messages.size());
  a.k = k;
  const int total = a.copy_count + a.msg_count;
  edges.clear();

  // Copy vertices are prefix-indexed by construction of the list scheduler
  // (copy j of process p sits at schedule.first_copy[p] + j), so the
  // (process, copy) -> vertex lookup is pure arithmetic.
  const auto cv = [&](ProcessId process, int copy) {
    return schedule.first_copy[static_cast<std::size_t>(process.get())] + copy;
  };

  // Data edges.  Cross-node messages go through their transmission vertex;
  // co-located flow is a direct edge.
  for (int m = 0; m < a.msg_count; ++m) {
    const ScheduledMessage& sm = schedule.messages[static_cast<std::size_t>(m)];
    const Message& msg = app.message(sm.msg);
    edges.emplace_back(cv(msg.src, sm.src_copy), a.msg_vertex(m));
    for (int dj = 0; dj < assignment.plan(msg.dst).copy_count(); ++dj) {
      edges.emplace_back(a.msg_vertex(m), cv(msg.dst, dj));
    }
  }
  for (const Message& msg : app.messages()) {
    const ProcessPlan& sp = assignment.plan(msg.src);
    const ProcessPlan& dp = assignment.plan(msg.dst);
    for (int sj = 0; sj < sp.copy_count(); ++sj) {
      if (sends_over_bus(dp, sp.copies[static_cast<std::size_t>(sj)].node)) {
        continue;  // a transmission, edged above
      }
      for (int dj = 0; dj < dp.copy_count(); ++dj) {
        edges.emplace_back(cv(msg.src, sj), cv(msg.dst, dj));
      }
    }
  }

  // Resource edges: static order on each node and on the bus.
  for (const auto& order : schedule.node_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      edges.emplace_back(order[i - 1], order[i]);
    }
  }
  for (std::size_t i = 1; i < schedule.bus_order.size(); ++i) {
    edges.emplace_back(a.msg_vertex(schedule.bus_order[i - 1]),
                       a.msg_vertex(schedule.bus_order[i]));
  }
  a.g.assign(total, edges);

  // Per-vertex weight tables w_v(f), f = 0..k.
  const std::size_t stride = static_cast<std::size_t>(k) + 1;
  a.weight.resize(static_cast<std::size_t>(total) * stride);
  a.release.assign(static_cast<std::size_t>(total), 0);
  for (int i = 0; i < a.copy_count; ++i) {
    const ScheduledCopy& sc = schedule.copies[static_cast<std::size_t>(i)];
    const Process& proc = app.process(sc.ref.process);
    const CopyPlan& cp = assignment.plan(sc.ref.process)
                             .copies.at(static_cast<std::size_t>(sc.ref.copy));
    RecoveryParams params{proc.wcet_on(sc.node), proc.alpha, proc.mu,
                          proc.chi};
    a.release[static_cast<std::size_t>(i)] = proc.release;
    Time* w = a.weight.data() + static_cast<std::size_t>(i) * stride;
    for (int f = 0; f <= k; ++f) {
      w[f] = cp.checkpoints >= 1
                 ? checkpointed_exec_time(params, cp.checkpoints,
                                          std::min(f, cp.recoveries))
                 : replica_exec_time(params);
    }
  }
  for (int m = 0; m < a.msg_count; ++m) {
    const ScheduledMessage& sm = schedule.messages[static_cast<std::size_t>(m)];
    Time* w = a.weight.data() +
              static_cast<std::size_t>(a.msg_vertex(m)) * stride;
    std::fill(w, w + stride,
              arch.bus().worst_case_duration(sm.sender,
                                             app.message(sm.msg).size));
  }
}

WcslDag build_wcsl_dag(const Application& app, const Architecture& arch,
                       const PolicyAssignment& assignment, int k,
                       const ListSchedule& schedule) {
  WcslDag dag;
  CsrDag::EdgeList edges;
  build_wcsl_dag_into(dag, edges, app, arch, assignment, k, schedule);
  return dag;
}

void wcsl_dp_row(const WcslDag& dag, int v,
                 const std::vector<std::vector<Time>>& L, int k,
                 std::vector<Time>& row) {
  // First row[b] = best_in[b] = max over predecessors p of L(p, b);
  // nondecreasing in b by construction of L.  Faults spent on a
  // transmission never help the adversary (constant weight), so the DP
  // naturally assigns f = 0 there.
  row.assign(static_cast<std::size_t>(k) + 1, 0);
  for (int p : dag.g.predecessors(v)) {
    const std::vector<Time>& in = L[static_cast<std::size_t>(p)];
    for (std::size_t b = 0; b < row.size(); ++b) {
      row[b] = std::max(row[b], in[b]);
    }
  }
  // Then L(v, b) in place, b descending: it reads best_in[0..b] only.
  const Time release = dag.release[static_cast<std::size_t>(v)];
  const Time* w = dag.weight_row(v);
  for (int b = k; b >= 0; --b) {
    Time best = 0;
    for (int f = 0; f <= b; ++f) {
      best = std::max(
          best, std::max(release, row[static_cast<std::size_t>(b - f)]) + w[f]);
    }
    row[static_cast<std::size_t>(b)] = best;
  }
}

namespace {

void fill_result_vertex(WcslResult& result, const ListSchedule& schedule,
                        const WcslDag& a, int v, Time worst_start,
                        Time worst_finish) {
  result.makespan = std::max(result.makespan, worst_finish);
  if (v < a.copy_count) {
    const ScheduledCopy& sc = schedule.copies[static_cast<std::size_t>(v)];
    auto& pf =
        result.process_finish[static_cast<std::size_t>(sc.ref.process.get())];
    pf = std::max(pf, worst_finish);
    result.copy_worst_start[static_cast<std::size_t>(v)] = worst_start;
    result.copy_worst_finish[static_cast<std::size_t>(v)] = worst_finish;
  } else {
    result.msg_worst_ready[static_cast<std::size_t>(v - a.copy_count)] =
        worst_start;
  }
}

WcslResult make_result(const Application& app, const WcslDag& a) {
  WcslResult result;
  result.process_finish.assign(static_cast<std::size_t>(app.process_count()),
                               0);
  result.copy_worst_start.assign(static_cast<std::size_t>(a.copy_count), 0);
  result.copy_worst_finish.assign(static_cast<std::size_t>(a.copy_count), 0);
  result.msg_worst_ready.assign(static_cast<std::size_t>(a.msg_count), 0);
  return result;
}

}  // namespace

WcslResult wcsl_result_from_rows(const Application& app,
                                 const ListSchedule& schedule,
                                 const WcslDag& dag,
                                 const std::vector<std::vector<Time>>& L,
                                 int k) {
  WcslResult result = make_result(app, dag);
  for (int v = 0; v < dag.g.vertex_count(); ++v) {
    Time in_k = 0;
    for (int p : dag.g.predecessors(v)) {
      in_k = std::max(
          in_k, L[static_cast<std::size_t>(p)][static_cast<std::size_t>(k)]);
    }
    const Time worst_start =
        std::max(dag.release[static_cast<std::size_t>(v)], in_k);
    const Time worst =
        L[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    fill_result_vertex(result, schedule, dag, v, worst_start, worst);
  }
  return result;
}

WcslResult worst_case_schedule_length(const Application& app,
                                      const Architecture& arch,
                                      const PolicyAssignment& assignment,
                                      const FaultModel& model,
                                      const ListSchedule& schedule) {
  model.validate();
  const int k = model.k;
  const WcslDag a = build_wcsl_dag(app, arch, assignment, k, schedule);
  // Budgeted longest-path DP in topological order.
  std::vector<std::vector<Time>> L(
      static_cast<std::size_t>(a.g.vertex_count()));
  for (int v : a.g.topological_order()) {
    wcsl_dp_row(a, v, L, k, L[static_cast<std::size_t>(v)]);
  }
  return wcsl_result_from_rows(app, schedule, a, L, k);
}

WcslResult worst_case_transparent(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& assignment,
                                  const FaultModel& model,
                                  const ListSchedule& schedule) {
  model.validate();
  const int k = model.k;
  const WcslDag a = build_wcsl_dag(app, arch, assignment, k, schedule);
  const int total = a.g.vertex_count();

  // Transparent (root-schedule) analysis: the start of every vertex must
  // hold in *every* scenario, and every vertex must be able to absorb all k
  // faults locally inside its slack.  Budgets therefore do not split along
  // a path: plain longest path with full-k weights.
  std::vector<Time> start(static_cast<std::size_t>(total), 0);
  std::vector<Time> finish(static_cast<std::size_t>(total), 0);
  WcslResult result = make_result(app, a);

  for (int v : a.g.topological_order()) {
    Time s = a.release[static_cast<std::size_t>(v)];
    for (int p : a.g.predecessors(v)) {
      s = std::max(s, finish[static_cast<std::size_t>(p)]);
    }
    start[static_cast<std::size_t>(v)] = s;
    finish[static_cast<std::size_t>(v)] = s + a.weight_row(v)[k];
    fill_result_vertex(result, schedule, a, v, s,
                       finish[static_cast<std::size_t>(v)]);
  }
  return result;
}

WcslResult evaluate_wcsl(const Application& app, const Architecture& arch,
                         const PolicyAssignment& assignment,
                         const FaultModel& model) {
  const ListSchedule schedule = list_schedule(app, arch, assignment);
  return worst_case_schedule_length(app, arch, assignment, model, schedule);
}

}  // namespace ftes

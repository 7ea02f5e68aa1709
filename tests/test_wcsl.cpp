// Tests of the worst-case schedule length analysis (fault-budget DP).
#include "sched/wcsl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "fault/recovery.h"
#include "fixtures.h"
#include "gen/taskgen.h"
#include "graph/digraph.h"
#include "sched/cond_scheduler.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;
using ::ftes::testing::random_assignment;
using ::ftes::testing::two_node_arch;

PolicyAssignment single(const Application& app, NodeId node, int k, int n) {
  PolicyAssignment pa = uniform_assignment(app, make_checkpointing_plan(k, n));
  for (int i = 0; i < app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = node;
  }
  return pa;
}

TEST(Wcsl, SingleProcessMatchesRecoveryAlgebra) {
  Application app;
  (void)app.add_process("A", {{NodeId{0}, 60}}, 10, 10, 5);
  app.set_deadline(1000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  for (int k : {0, 1, 2, 3}) {
    const PolicyAssignment pa = single(app, NodeId{0}, k, 2);
    const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{k});
    EXPECT_EQ(r.makespan,
              checkpointed_exec_time(RecoveryParams{60, 10, 10, 5}, 2, k));
  }
}

TEST(Wcsl, AdversaryConcentratesFaultsOnWorstProcess) {
  // Two independent processes on one node: all k faults go to the process
  // with the larger per-fault recovery cost.
  Application app;
  (void)app.add_process("A", {{NodeId{0}, 100}}, 5, 5, 5);  // rec = 110
  (void)app.add_process("B", {{NodeId{0}, 20}}, 5, 5, 5);   // rec = 30
  app.set_deadline(10000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const int k = 3;
  const PolicyAssignment pa = single(app, NodeId{0}, k, 1);
  const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{k});
  const Time fault_free = (100 + 5) + (20 + 5);  // chi = 5 each, n = 1
  EXPECT_EQ(r.makespan, fault_free + k * (100 + 5 + 5));
}

TEST(Wcsl, BudgetSplitsAcrossSerialChainOptimally) {
  // A -> B on one node with different recovery costs; the DP must consider
  // mixed splits, not only all-on-one.
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 50}}, 1, 1, 1);
  const ProcessId b = app.add_process("B", {{NodeId{0}, 48}}, 1, 1, 1);
  app.connect(a, b);
  app.set_deadline(10000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const int k = 2;
  const PolicyAssignment pa = single(app, NodeId{0}, k, 1);
  const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{k});
  // Best adversary: both faults on A (52 each) vs split; all-on-A wins.
  const Time fault_free = 51 + 49;
  EXPECT_EQ(r.makespan, fault_free + 2 * (50 + 1 + 1));
}

TEST(Wcsl, MoreCheckpointsReduceWorstCase) {
  Application app;
  (void)app.add_process("A", {{NodeId{0}, 100}}, 2, 2, 2);
  app.set_deadline(10000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const int k = 4;
  const Time with_one =
      evaluate_wcsl(app, arch, single(app, NodeId{0}, k, 1), FaultModel{k})
          .makespan;
  const Time with_five =
      evaluate_wcsl(app, arch, single(app, NodeId{0}, k, 5), FaultModel{k})
          .makespan;
  EXPECT_LT(with_five, with_one);
}

TEST(Wcsl, ReplicationAvoidsTimeRedundancy) {
  // One heavy process: replication's worst case is the slowest replica,
  // re-execution's is k recoveries in sequence.
  Application app;
  const ProcessId a =
      app.add_process("A", {{NodeId{0}, 100}, {NodeId{1}, 100}}, 5, 5, 5);
  app.set_deadline(10000);
  const Architecture arch = two_node_arch();
  const int k = 1;

  PolicyAssignment repl(app.process_count());
  ProcessPlan plan = make_replication_plan(k);
  plan.copies[0].node = NodeId{0};
  plan.copies[1].node = NodeId{1};
  repl.plan(a) = plan;
  const Time t_repl =
      evaluate_wcsl(app, arch, repl, FaultModel{k}).makespan;
  EXPECT_EQ(t_repl, 100);  // replicas in parallel, faults kill not delay

  const Time t_reexec =
      evaluate_wcsl(app, arch, single(app, NodeId{0}, k, 1), FaultModel{k})
          .makespan;
  EXPECT_EQ(t_reexec, 105 + (100 + 5 + 5));
  EXPECT_LT(t_repl, t_reexec);
}

TEST(Wcsl, MonotoneInFaultCount) {
  auto f = fig5_app();
  Time prev = 0;
  for (int k = 0; k <= 4; ++k) {
    PolicyAssignment pa(f.app.process_count());
    for (int i = 0; i < f.app.process_count(); ++i) {
      ProcessPlan plan = make_checkpointing_plan(k, 1);
      plan.copies[0].node = f.assignment.plan(ProcessId{i}).copies[0].node;
      pa.plan(ProcessId{i}) = plan;
    }
    const Time m = evaluate_wcsl(f.app, f.arch, pa, FaultModel{k}).makespan;
    EXPECT_GE(m, prev) << "k=" << k;
    prev = m;
  }
}

TEST(Wcsl, UpperBoundsScenarioExactWcsl) {
  // The DP is conservative: it must dominate the scenario-exact worst case
  // computed by the conditional scheduler (transparency ignored).
  auto f = fig5_app();
  CondScheduleOptions opts;
  opts.respect_transparency = false;
  // The DP models data traffic but not condition-broadcast contention
  // (Section 6's estimators do the same), so compare against the
  // broadcast-free exact schedule.
  opts.schedule_condition_broadcasts = false;
  const CondScheduleResult exact =
      conditional_schedule(f.app, f.arch, f.assignment, f.model, opts);
  const WcslResult dp = evaluate_wcsl(f.app, f.arch, f.assignment, f.model);
  EXPECT_GE(dp.makespan, exact.wcsl);
}

TEST(Wcsl, ProcessFinishFeedsLocalDeadlines) {
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 30}}, 5, 5, 5);
  app.process(a).local_deadline = 40;
  app.set_deadline(1000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const PolicyAssignment pa = single(app, NodeId{0}, 1, 1);
  const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{1});
  // Worst case 35 + 40 = 75 > 40: local deadline violated.
  EXPECT_FALSE(r.meets_deadlines(app));
  app.process(a).local_deadline = 100;
  EXPECT_TRUE(evaluate_wcsl(app, arch, pa, FaultModel{1}).meets_deadlines(app));
}

TEST(Wcsl, DeadlineCheckUsesGlobalDeadline) {
  auto f = fig5_app();
  const WcslResult r = evaluate_wcsl(f.app, f.arch, f.assignment, f.model);
  f.app.set_deadline(r.makespan);
  EXPECT_TRUE(
      evaluate_wcsl(f.app, f.arch, f.assignment, f.model).meets_deadlines(f.app));
  f.app.set_deadline(r.makespan - 1);
  EXPECT_FALSE(
      evaluate_wcsl(f.app, f.arch, f.assignment, f.model).meets_deadlines(f.app));
}

/// Independent reference for the augmented DAG's edges: the definition
/// spelled out with a Digraph and a (message, source copy) -> transmission
/// map.
Digraph reference_dag(const Application& app, const PolicyAssignment& pa,
                      const ListSchedule& s) {
  const int copies = static_cast<int>(s.copies.size());
  Digraph g(copies + static_cast<int>(s.messages.size()));
  std::map<std::pair<int, int>, int> tx;
  for (int m = 0; m < static_cast<int>(s.messages.size()); ++m) {
    const ScheduledMessage& sm = s.messages[static_cast<std::size_t>(m)];
    tx[{sm.msg.get(), sm.src_copy}] = copies + m;
    g.add_edge(s.copy_index(CopyRef{app.message(sm.msg).src, sm.src_copy}),
               copies + m);
  }
  for (int mi = 0; mi < app.message_count(); ++mi) {
    const Message& msg = app.message(MessageId{mi});
    for (int sj = 0; sj < pa.plan(msg.src).copy_count(); ++sj) {
      const auto it = tx.find({mi, sj});
      for (int dj = 0; dj < pa.plan(msg.dst).copy_count(); ++dj) {
        g.add_edge(it != tx.end() ? it->second
                                  : s.copy_index(CopyRef{msg.src, sj}),
                   s.copy_index(CopyRef{msg.dst, dj}));
      }
    }
  }
  for (const auto& order : s.node_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      g.add_edge(order[i - 1], order[i]);
    }
  }
  for (std::size_t i = 1; i < s.bus_order.size(); ++i) {
    g.add_edge(copies + s.bus_order[i - 1], copies + s.bus_order[i]);
  }
  return g;
}

std::vector<int> sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(WcslDag, BuildIntoReusedBuffersMatchesFreshAndReference) {
  TaskGenParams params;
  params.process_count = 14;
  params.node_count = 3;
  Rng rng(11);
  const Application app = generate_application(params, rng);
  const Architecture arch = generate_architecture(params);

  // One DAG, edge scratch and row set across rounds whose copy counts grow
  // and shrink (replication share cycles 0 -> 0.9 -> 0) while k changes.
  WcslDag dag;
  CsrDag::EdgeList edges;
  std::vector<std::vector<Time>> rows;
  const double replicate[] = {0.0, 0.3, 0.9, 0.5, 0.1, 0.9, 0.0, 0.6};
  for (int round = 0; round < 24; ++round) {
    const int k = 1 + (round * 5) % 4;
    const PolicyAssignment pa =
        random_assignment(app, arch, k, replicate[round % 8], rng);
    const ListSchedule sched = list_schedule(app, arch, pa);
    build_wcsl_dag_into(dag, edges, app, arch, pa, k, sched);
    const WcslDag fresh = build_wcsl_dag(app, arch, pa, k, sched);
    const Digraph ref = reference_dag(app, pa, sched);

    const int n = dag.g.vertex_count();
    ASSERT_EQ(n, ref.vertex_count()) << "round " << round;
    ASSERT_EQ(fresh.g.vertex_count(), n);
    EXPECT_EQ(dag.g.edge_count(), ref.edge_count());
    EXPECT_EQ(fresh.g.edge_count(), ref.edge_count());
    EXPECT_EQ(dag.weight, fresh.weight);
    EXPECT_EQ(dag.release, fresh.release);
    for (int v = 0; v < n; ++v) {
      const auto preds = dag.g.predecessors(v);
      const auto fresh_preds = fresh.g.predecessors(v);
      const std::vector<int> got(preds.begin(), preds.end());
      EXPECT_EQ(got, sorted(ref.predecessors(v))) << "vertex " << v;
      EXPECT_EQ(got, std::vector<int>(fresh_preds.begin(), fresh_preds.end()));
    }

    const std::vector<int>& order = dag.g.topological_order();
    ASSERT_EQ(static_cast<int>(order.size()), n);
    std::vector<int> pos(static_cast<std::size_t>(n), -1);
    for (int i = 0; i < n; ++i) {
      int& slot =
          pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
      ASSERT_EQ(slot, -1);  // a permutation: every vertex exactly once
      slot = i;
    }
    for (int v = 0; v < n; ++v) {
      for (int p : dag.g.predecessors(v)) {
        EXPECT_LT(pos[static_cast<std::size_t>(p)],
                  pos[static_cast<std::size_t>(v)]);
      }
    }

    rows.resize(static_cast<std::size_t>(n));
    for (int v : order) {
      (void)wcsl_dp_row(dag, v, rows, k, rows[static_cast<std::size_t>(v)]);
    }
    EXPECT_EQ(wcsl_result_from_rows(app, sched, dag, rows, k).makespan,
              evaluate_wcsl(app, arch, pa, FaultModel{k}).makespan)
        << "round " << round;
  }
}

}  // namespace
}  // namespace ftes

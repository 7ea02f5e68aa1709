// Tests of the fault-free list scheduler (substrate of Section 5/6).
#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fixtures.h"
#include "gen/taskgen.h"
#include "graph/digraph.h"

namespace ftes {
namespace {

using ::ftes::testing::fig3_app;
using ::ftes::testing::fig5_app;
using ::ftes::testing::random_assignment;
using ::ftes::testing::two_node_arch;

PolicyAssignment all_on(const Application& app, NodeId node, int k, int n) {
  PolicyAssignment pa = uniform_assignment(app, make_checkpointing_plan(k, n));
  for (int i = 0; i < app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = node;
  }
  return pa;
}

TEST(ListScheduler, ChainOnOneNodeSerializes) {
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 10}}, 0, 0, 0);
  const ProcessId b = app.add_process("B", {{NodeId{0}, 20}}, 0, 0, 0);
  app.connect(a, b);
  app.set_deadline(100);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const PolicyAssignment pa = all_on(app, NodeId{0}, 0, 1);
  // n = 1 checkpoint with chi = 0: durations are the plain WCETs.
  const ListSchedule s = list_schedule(app, arch, pa);
  EXPECT_EQ(s.makespan, 30);
  EXPECT_EQ(s.copies[0].start, 0);
  EXPECT_EQ(s.copies[1].start, 10);
  EXPECT_TRUE(s.messages.empty());  // co-located: no bus traffic
}

TEST(ListScheduler, CrossNodeMessageUsesTdmaSlots) {
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 12}}, 0, 0, 0);
  const ProcessId b = app.add_process("B", {{NodeId{1}, 10}}, 0, 0, 0);
  app.connect(a, b, "m", 1);
  app.set_deadline(100);
  const Architecture arch = two_node_arch();  // 5-tick slots, 10-tick round
  PolicyAssignment pa(app.process_count());
  ProcessPlan plan;
  plan.copies.push_back(CopyPlan{NodeId{0}, 1, 0});
  pa.plan(a) = plan;
  plan.copies[0].node = NodeId{1};
  pa.plan(b) = plan;
  const ListSchedule s = list_schedule(app, arch, pa);
  // A finishes at 12; N1's next slot starts at 20, transmission ends at 25;
  // B runs 25..35.
  ASSERT_EQ(s.messages.size(), 1u);
  EXPECT_EQ(s.messages[0].start, 20);
  EXPECT_EQ(s.messages[0].finish, 25);
  EXPECT_EQ(s.makespan, 35);
}

TEST(ListScheduler, CheckpointOverheadExtendsDurations) {
  Application app;
  (void)app.add_process("A", {{NodeId{0}, 30}}, 5, 5, 5);
  app.set_deadline(100);
  const Architecture arch = Architecture::homogeneous(1, 5);
  // 3 checkpoints: fault-free duration 30 + 3*5 = 45.
  const PolicyAssignment pa = all_on(app, NodeId{0}, 2, 3);
  EXPECT_EQ(list_schedule(app, arch, pa).makespan, 45);
}

TEST(ListScheduler, ReplicasScheduledOnTheirNodes) {
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 10}, {NodeId{1}, 14}},
                                      0, 0, 0);
  app.set_deadline(100);
  const Architecture arch = two_node_arch();
  PolicyAssignment pa(app.process_count());
  ProcessPlan plan = make_replication_plan(1);
  plan.copies[0].node = NodeId{0};
  plan.copies[1].node = NodeId{1};
  pa.plan(a) = plan;
  const ListSchedule s = list_schedule(app, arch, pa);
  ASSERT_EQ(s.copies.size(), 2u);
  EXPECT_EQ(s.copies[0].finish, 10);
  EXPECT_EQ(s.copies[1].finish, 14);
  EXPECT_EQ(s.makespan, 14);  // slowest replica
}

TEST(ListScheduler, ReleaseOffsetsRespected) {
  Application app;
  Process p;
  p.name = "A";
  p.wcet[NodeId{0}] = 10;
  p.release = 50;
  (void)app.add_process(std::move(p));
  app.set_deadline(100);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const PolicyAssignment pa = all_on(app, NodeId{0}, 0, 1);
  const ListSchedule s = list_schedule(app, arch, pa);
  EXPECT_EQ(s.copies[0].start, 50);
  EXPECT_EQ(s.makespan, 60);
}

TEST(ListScheduler, Fig3FixtureProducesFeasibleSchedule) {
  auto f = fig3_app();
  const Architecture arch = two_node_arch();
  PolicyAssignment pa =
      uniform_assignment(f.app, make_checkpointing_plan(2, 1));
  // Map everything legally: P3 must be on N1.
  for (int i = 0; i < f.app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = NodeId{0};
  }
  pa.plan(f.p2).copies[0].node = NodeId{1};
  pa.plan(f.p4).copies[0].node = NodeId{1};
  const ListSchedule s = list_schedule(f.app, arch, pa);
  EXPECT_GT(s.makespan, 0);
  // Precedence sanity: every consumer starts after its producers finish.
  for (const Message& m : f.app.messages()) {
    const int src = s.copy_index(CopyRef{m.src, 0});
    const int dst = s.copy_index(CopyRef{m.dst, 0});
    EXPECT_GE(s.copies[static_cast<std::size_t>(dst)].start,
              s.copies[static_cast<std::size_t>(src)].finish);
  }
  // Node exclusivity: no overlap within a node's static order.
  for (const auto& order : s.node_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_GE(s.copies[static_cast<std::size_t>(order[i])].start,
                s.copies[static_cast<std::size_t>(order[i - 1])].finish);
    }
  }
}

TEST(ListScheduler, StripFaultToleranceKeepsMapping) {
  auto f = fig5_app();
  const PolicyAssignment stripped = strip_fault_tolerance(f.app, f.assignment);
  for (int i = 0; i < f.app.process_count(); ++i) {
    const ProcessId pid{i};
    EXPECT_EQ(stripped.plan(pid).copy_count(), 1);
    EXPECT_EQ(stripped.plan(pid).copies[0].checkpoints, 0);
    EXPECT_EQ(stripped.plan(pid).copies[0].node,
              f.assignment.plan(pid).copies[0].node);
  }
  // No-FT schedule is never longer than the FT fault-free schedule.
  const Architecture arch = two_node_arch();
  EXPECT_LE(list_schedule(f.app, arch, stripped).makespan,
            list_schedule(f.app, arch, f.assignment).makespan);
}

TEST(ListScheduler, PriorityRanksMatchCopyGraphCriticalPath) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TaskGenParams params;
    params.process_count = 12;
    params.node_count = 3;
    Rng rng(seed);
    Application app = generate_application(params, rng);
    const Architecture arch = generate_architecture(params);
    // A second message between an already connected pair: two copy-graph
    // edges per copy pair.
    const Message first = app.message(MessageId{0});
    (void)app.connect(first.src, first.dst, "dup", 2);
    const int k = 2;
    const PolicyAssignment pa = random_assignment(app, arch, k, 0.4, rng);

    ScheduleCheckpointLog log;
    const ListSchedule s = list_schedule(app, arch, pa, log);
    // Explicit copy graph: every producer copy precedes every consumer copy.
    Digraph g(static_cast<int>(s.copies.size()));
    for (const Message& m : app.messages()) {
      for (int sj = 0; sj < pa.plan(m.src).copy_count(); ++sj) {
        for (int dj = 0; dj < pa.plan(m.dst).copy_count(); ++dj) {
          g.add_edge(s.copy_index(CopyRef{m.src, sj}),
                     s.copy_index(CopyRef{m.dst, dj}));
        }
      }
    }
    const std::vector<Time> expected = g.critical_path_from([&](int v) {
      const ScheduledCopy& sc = s.copies[static_cast<std::size_t>(v)];
      Time comm = 0;
      for (MessageId mid : app.outputs(sc.ref.process)) {
        comm = std::max(comm, arch.bus().worst_case_duration(
                                  sc.node, app.message(mid).size));
      }
      return sc.finish - sc.start + comm;
    });
    EXPECT_EQ(log.rank, expected) << "seed " << seed;
    EXPECT_EQ(copy_priority_ranks(app, arch, pa), expected);
  }
}

TEST(ListScheduler, CyclicApplicationThrows) {
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 10}}, 0, 0, 0);
  const ProcessId b = app.add_process("B", {{NodeId{0}, 10}}, 0, 0, 0);
  app.connect(a, b);
  app.connect(b, a);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const PolicyAssignment pa = all_on(app, NodeId{0}, 0, 1);
  EXPECT_THROW((void)list_schedule(app, arch, pa), std::invalid_argument);
}

}  // namespace
}  // namespace ftes

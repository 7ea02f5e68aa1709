// Tests of the application model (Section 4) and the LCM merge.
#include "app/application.h"

#include <gtest/gtest.h>

#include <thread>
#include <type_traits>
#include <vector>

#include "app/merge.h"
#include "fixtures.h"

namespace ftes {
namespace {

using ::ftes::testing::fig3_app;
using ::ftes::testing::two_node_arch;

TEST(Application, WcetTableAndRestrictions) {
  auto f = fig3_app();
  EXPECT_EQ(f.app.process(f.p2).wcet_on(NodeId{0}), 40);
  EXPECT_EQ(f.app.process(f.p2).wcet_on(NodeId{1}), 60);
  EXPECT_FALSE(f.app.process(f.p3).can_run_on(NodeId{1}));
  EXPECT_THROW((void)f.app.process(f.p3).wcet_on(NodeId{1}), std::invalid_argument);
}

TEST(Application, AdjacencyAndTopo) {
  auto f = fig3_app();
  EXPECT_EQ(f.app.predecessors(f.p4), std::vector<ProcessId>{f.p2});
  EXPECT_EQ(f.app.successors(f.p1), (std::vector<ProcessId>{f.p2, f.p3}));
  const auto order = f.app.topological_order();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.front(), f.p1);
  EXPECT_EQ(f.app.roots(), std::vector<ProcessId>{f.p1});
  EXPECT_EQ(f.app.sinks(), (std::vector<ProcessId>{f.p4, f.p5}));
}

// Containers of applications (e.g. generated instance lists) must move, not
// copy, them when they grow.
static_assert(std::is_nothrow_move_constructible_v<Application>);
static_assert(std::is_nothrow_move_assignable_v<Application>);

TEST(Application, CachedTopologicalOrderFollowsEditsAndCopies) {
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 1}}, 0, 0, 0);
  const ProcessId b = app.add_process("B", {{NodeId{0}, 1}}, 0, 0, 0);
  app.connect(a, b);
  EXPECT_EQ(app.topological_order(), (std::vector<ProcessId>{a, b}));
  const ProcessId c = app.add_process("C", {{NodeId{0}, 1}}, 0, 0, 0);
  app.connect(c, a);
  EXPECT_EQ(app.topological_order(), (std::vector<ProcessId>{c, a, b}));

  // Concurrent first calls on a copy (whose cache starts empty) agree.
  const Application copy = app;
  std::vector<std::vector<ProcessId>> seen(4);
  std::vector<std::thread> threads;
  for (std::vector<ProcessId>& out : seen) {
    threads.emplace_back([&copy, &out] { out = copy.topological_order(); });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<ProcessId>& out : seen) {
    EXPECT_EQ(out, (std::vector<ProcessId>{c, a, b}));
  }
  app.connect(b, c);
  EXPECT_THROW((void)app.topological_order(), std::invalid_argument);
}

TEST(Application, RejectsSelfMessage) {
  auto f = fig3_app();
  EXPECT_THROW(f.app.connect(f.p1, f.p1), std::invalid_argument);
}

TEST(Application, ValidatePassesOnFixture) {
  auto f = fig3_app();
  EXPECT_NO_THROW(f.app.validate(two_node_arch()));
}

TEST(Application, ValidateRejectsUnknownNodeInWcet) {
  auto f = fig3_app();
  f.app.process(f.p1).wcet[NodeId{7}] = 10;
  EXPECT_THROW(f.app.validate(two_node_arch()), std::invalid_argument);
}

TEST(Application, ValidateRejectsNonPositiveWcet) {
  auto f = fig3_app();
  f.app.process(f.p1).wcet[NodeId{0}] = 0;
  EXPECT_THROW(f.app.validate(two_node_arch()), std::invalid_argument);
}

TEST(Application, ValidateRejectsEmptyApp) {
  Application app;
  EXPECT_THROW(app.validate(two_node_arch()), std::invalid_argument);
}

// --- merge -----------------------------------------------------------------

Application simple_chain(const std::string& prefix, Time wcet) {
  Application app;
  const ProcessId a = app.add_process(prefix + "a", {{NodeId{0}, wcet}}, 1, 1, 1);
  const ProcessId b = app.add_process(prefix + "b", {{NodeId{0}, wcet}}, 1, 1, 1);
  app.connect(a, b);
  return app;
}

TEST(Merge, LcmPeriod) {
  EXPECT_EQ(lcm_period({4, 6}), 12);
  EXPECT_EQ(lcm_period({5}), 5);
  EXPECT_EQ(lcm_period({2, 3, 7}), 42);
  EXPECT_THROW((void)lcm_period({0}), std::invalid_argument);
  EXPECT_THROW((void)lcm_period({}), std::invalid_argument);
}

TEST(Merge, InstantiatesShorterPeriodApps) {
  PeriodicApplication a{simple_chain("A", 10), 40};
  PeriodicApplication b{simple_chain("B", 5), 20};
  const Application merged = merge({a, b});
  EXPECT_EQ(merged.period(), 40);
  // A appears once (2 processes), B twice (4 processes).
  EXPECT_EQ(merged.process_count(), 6);
  EXPECT_EQ(merged.message_count(), 3);
  // Second instance of B is released one period later.
  int released_late = 0;
  for (const Process& p : merged.processes()) {
    if (p.release == 20) ++released_late;
  }
  EXPECT_EQ(released_late, 2);
}

TEST(Merge, InheritsDeadlinesAsLocalDeadlines) {
  Application chain = simple_chain("A", 10);
  chain.set_deadline(15);
  PeriodicApplication a{chain, 20};
  PeriodicApplication b{simple_chain("B", 5), 40};
  const Application merged = merge({a, b});
  // Each instance's sink gets deadline offset + 15.
  int with_deadline = 0;
  for (const Process& p : merged.processes()) {
    if (p.local_deadline) {
      ++with_deadline;
      EXPECT_TRUE(*p.local_deadline == 15 || *p.local_deadline == 35);
    }
  }
  EXPECT_EQ(with_deadline, 2);
}

TEST(Merge, MergedGraphIsAcyclicAndValid) {
  PeriodicApplication a{simple_chain("A", 10), 30};
  PeriodicApplication b{simple_chain("B", 5), 15};
  const Application merged = merge({a, b});
  EXPECT_NO_THROW(merged.validate(two_node_arch()));
  EXPECT_EQ(merged.topological_order().size(),
            static_cast<std::size_t>(merged.process_count()));
}

}  // namespace
}  // namespace ftes

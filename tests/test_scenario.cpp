// Tests of fault scenarios and their enumeration (fault model, Section 2).
#include "fault/scenario.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fixtures.h"

namespace ftes {
namespace {

using ::ftes::testing::fig3_app;

TEST(FaultScenario, AccumulatesHits) {
  FaultScenario s;
  const CopyRef c{ProcessId{0}, 0};
  EXPECT_TRUE(s.empty());
  s.add_fault(c);
  s.add_fault(c, 2);
  EXPECT_EQ(s.faults_on(c), 3);
  EXPECT_EQ(s.total_faults(), 3);
  EXPECT_EQ(s.faults_on(CopyRef{ProcessId{1}, 0}), 0);
  EXPECT_THROW((void)s.add_fault(c, -1), std::invalid_argument);
}

TEST(FaultScenario, CopySurvivalAgainstRecoveries) {
  FaultScenario s;
  const CopyRef c{ProcessId{0}, 0};
  s.add_fault(c, 2);
  CopyPlan with_two{NodeId{0}, 1, 2};
  CopyPlan with_one{NodeId{0}, 1, 1};
  EXPECT_TRUE(s.copy_survives(with_two, c));
  EXPECT_FALSE(s.copy_survives(with_one, c));
}

TEST(FaultScenario, ToStringNamesProcesses) {
  auto f = fig3_app();
  FaultScenario s;
  s.add_fault(CopyRef{f.p2, 0}, 2);
  EXPECT_EQ(s.to_string(f.app), "{P2x2}");
  EXPECT_EQ(FaultScenario{}.to_string(f.app), "{no faults}");
}

TEST(FaultScenario, RemoveFaultUndoesAdd) {
  auto f = fig3_app();
  FaultScenario s;
  s.add_fault(CopyRef{f.p1, 0}, 2);
  s.add_fault(CopyRef{f.p2, 0});
  s.remove_fault(CopyRef{f.p1, 0});
  EXPECT_EQ(s.faults_on(CopyRef{f.p1, 0}), 1);
  EXPECT_EQ(s.total_faults(), 2);
  s.remove_fault(CopyRef{f.p1, 0});
  EXPECT_EQ(s.hits().count(CopyRef{f.p1, 0}), 0u);  // no zero entries
  EXPECT_EQ(s.total_faults(), 1);
  EXPECT_THROW(s.remove_fault(CopyRef{f.p2, 0}, 2), std::invalid_argument);
  s.remove_fault(CopyRef{f.p3, 0}, 0);  // no-op
  EXPECT_EQ(s.total_faults(), 1);
}

// Enumeration size: distributing <= k faults over m copies yields
// C(m + k, k) scenarios (stars and bars, including the empty one).
TEST(ScenarioEnumeration, CountsMatchStarsAndBars) {
  auto f = fig3_app();
  PolicyAssignment pa = uniform_assignment(f.app, make_checkpointing_plan(2, 1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = NodeId{0};
  }
  // m = 5 copies, k = 2: C(7,2) = 21.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 2).size(), 21u);
  // k = 1: C(6,1) = 6.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 1).size(), 6u);
  // k = 0: only the fault-free scenario.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 0).size(), 1u);
}

TEST(ScenarioEnumeration, RespectsBudgetAndUniqueness) {
  auto f = fig3_app();
  PolicyAssignment pa = uniform_assignment(f.app, make_checkpointing_plan(3, 1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = NodeId{0};
  }
  const auto scenarios = enumerate_scenarios(f.app, pa, 3);
  std::set<std::string> seen;
  for (const FaultScenario& s : scenarios) {
    EXPECT_LE(s.total_faults(), 3);
    EXPECT_TRUE(seen.insert(s.to_string(f.app)).second)
        << "duplicate scenario " << s.to_string(f.app);
  }
}

TEST(ScenarioEnumeration, CoversReplicaCopies) {
  auto f = fig3_app();
  PolicyAssignment pa = uniform_assignment(f.app, make_replication_plan(1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    for (CopyPlan& c : pa.plan(ProcessId{i}).copies) c.node = NodeId{0};
  }
  // m = 10 copies, k = 1: 11 scenarios.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 1).size(), 11u);
}

}  // namespace
}  // namespace ftes

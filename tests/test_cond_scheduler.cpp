// Tests of the conditional scheduler / schedule tables (Section 5, Fig. 6).
#include "sched/cond_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fixtures.h"
#include "gen/taskgen.h"
#include "sim/executor.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;

TEST(CondScheduler, FaultFreeScenarioMatchesListScheduleShape) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  ASSERT_FALSE(r.traces.empty());
  // The first enumerated scenario is fault-free.
  const ScenarioTrace& ff = r.traces.front();
  EXPECT_EQ(ff.scenario.total_faults(), 0);
  for (const ExecTrace& e : ff.execs) {
    EXPECT_FALSE(e.died);
    EXPECT_EQ(e.attempt_starts.size(), 1u);
  }
}

TEST(CondScheduler, ScenarioCountIsStarsAndBars) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // 4 copies, k = 2: C(6,2) = 15 scenarios.
  EXPECT_EQ(r.scenario_count, 15);
}

TEST(CondScheduler, Fig6ReexecutionStartsOfP1) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P1 (C = 30, alpha = 5, mu = chi = 0) re-executes at 0 / 35 / 70,
  // exactly the paper's Fig. 6 N1 row for P1.
  FaultScenario two_faults;
  two_faults.add_fault(CopyRef{f.p1, 0}, 2);
  bool found = false;
  for (const ScenarioTrace& tr : r.traces) {
    if (!(tr.scenario.hits() == two_faults.hits())) continue;
    found = true;
    for (const ExecTrace& e : tr.execs) {
      if (e.copy.process == f.p1) {
        ASSERT_EQ(e.attempt_starts.size(), 3u);
        EXPECT_EQ(e.attempt_starts[0], 0);
        EXPECT_EQ(e.attempt_starts[1], 35);
        EXPECT_EQ(e.attempt_starts[2], 70);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(CondScheduler, TransparencyPinsFrozenStarts) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P3 and the frozen messages must start at one single time across all 15
  // scenarios (checked exhaustively by the executor).
  const ExecutionReport report =
      check_all_scenarios(f.app, f.assignment, r);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
  ASSERT_TRUE(r.frozen_starts.count("P3"));
  ASSERT_TRUE(r.frozen_starts.count("m2"));
  ASSERT_TRUE(r.frozen_starts.count("m3"));
  // The pinned start must accommodate the worst input path.
  Time latest_m3 = 0;
  for (const ScenarioTrace& tr : r.traces) {
    for (const TxTrace& tx : tr.txs) {
      if (!tx.is_condition && tx.msg == f.m3) {
        latest_m3 = std::max(latest_m3, tx.start);
      }
    }
  }
  EXPECT_EQ(latest_m3, r.frozen_starts.at("m3"));
}

TEST(CondScheduler, TransparencyCostsScheduleLength) {
  auto frozen = fig5_app();
  const CondScheduleResult with =
      conditional_schedule(frozen.app, frozen.arch, frozen.assignment,
                           frozen.model);
  CondScheduleOptions opts;
  opts.respect_transparency = false;
  const CondScheduleResult without =
      conditional_schedule(frozen.app, frozen.arch, frozen.assignment,
                           frozen.model, opts);
  // Section 3.3: transparency may only lengthen the worst case...
  EXPECT_GE(with.wcsl, without.wcsl);
  // ...but shrinks the tables (fewer distinct columns downstream).
  EXPECT_LE(with.tables.total_entries(), without.tables.total_entries());
}

TEST(CondScheduler, FrozenMessageOccupiesBusEvenWhenCoLocated) {
  auto f = fig5_app();
  // m3: P4 -> P3, both on N2, but frozen => must appear on the bus, like
  // the paper's Fig. 6 where frozen m3 takes a slot at t = 120.
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  EXPECT_TRUE(r.tables.bus_rows.count("m3"));
}

TEST(CondScheduler, ConditionBroadcastsAppearInBusRows) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P1 can fault twice: both condition rows must exist (Fig. 6's F rows).
  EXPECT_TRUE(r.tables.bus_rows.count("F_P1^1"));
  EXPECT_TRUE(r.tables.bus_rows.count("F_P1^2"));
}

TEST(CondScheduler, TablesSeparateRowsByNode) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const TableRows& n1 = r.tables.node_rows[0];
  const TableRows& n2 = r.tables.node_rows[1];
  EXPECT_TRUE(n1.count("P1"));
  EXPECT_TRUE(n1.count("P2"));
  EXPECT_FALSE(n1.count("P3"));
  EXPECT_TRUE(n2.count("P3"));
  EXPECT_TRUE(n2.count("P4"));
}

TEST(CondScheduler, GuardsGrowWithFaultHistory) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P1's first activation is unconditional; its re-executions carry the
  // fault literals of the earlier attempts.
  const auto& p1_row = r.tables.node_rows[0].at("P1");
  bool unconditional_first = false;
  bool conditional_reexec = false;
  for (const TableEntry& e : p1_row) {
    if (e.start == 0 && e.guard.literals().empty()) unconditional_first = true;
    if (e.start == 35 && e.guard.faults() >= 1) conditional_reexec = true;
  }
  EXPECT_TRUE(unconditional_first);
  EXPECT_TRUE(conditional_reexec);
}

TEST(CondScheduler, WcslDominatesEveryScenario) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  for (const ScenarioTrace& tr : r.traces) {
    EXPECT_LE(tr.makespan, r.wcsl);
  }
  EXPECT_GT(r.wcsl, 0);
}

TEST(CondScheduler, ScenarioCapThrows) {
  auto f = fig5_app();
  CondScheduleOptions opts;
  opts.max_scenarios = 3;
  EXPECT_THROW(
      conditional_schedule(f.app, f.arch, f.assignment, f.model, opts),
      std::length_error);
}

TEST(CondScheduler, ReplicationSchedulesAllCopies) {
  auto f = fig5_app();
  ProcessPlan plan = make_replication_plan(f.model.k);
  plan.copies[0].node = NodeId{0};
  plan.copies[1].node = NodeId{1};
  plan.copies[2].node = NodeId{0};
  f.assignment.plan(f.p1) = plan;
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const ScenarioTrace& ff = r.traces.front();
  int p1_copies = 0;
  for (const ExecTrace& e : ff.execs) {
    if (e.copy.process == f.p1) ++p1_copies;
  }
  EXPECT_EQ(p1_copies, 3);
  const ExecutionReport report = check_all_scenarios(f.app, f.assignment, r);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST(CondScheduler, TextRenderingMentionsAllRows) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const std::string text = r.tables.to_text(f.arch);
  for (const char* token : {"P1", "P2", "P3", "P4", "m1", "m2", "m3",
                            "F_P1^1", "WCSL"}) {
    EXPECT_NE(text.find(token), std::string::npos) << token;
  }
}

// ---------------------------------------------------------------------------
// Table generation pinned on generated instances: a 64-bit FNV-1a hash over
// the rendered tables, every trace's executions, transmissions and reveal
// order, the frozen pins and the WCSL.  The hashes pin the generator's
// exact output: a faster generator must reproduce them bit for bit, at every
// thread count.

class Fnv64 {
 public:
  void mix(std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(const std::string& s) {
    mix(static_cast<std::int64_t>(s.size()));
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const CondScheduleResult& r,
                          const Architecture& arch) {
  Fnv64 h;
  h.mix(r.tables.to_text(arch));
  h.mix(r.wcsl);
  h.mix(r.scenario_count);
  for (const auto& [name, start] : r.frozen_starts) {
    h.mix(name);
    h.mix(start);
  }
  for (const ScenarioTrace& tr : r.traces) {
    h.mix(tr.scenario.total_faults());
    for (const auto& [ref, count] : tr.scenario.hits()) {
      h.mix(ref.process.get());
      h.mix(ref.copy);
      h.mix(count);
    }
    h.mix(tr.makespan);
    h.mix(static_cast<std::int64_t>(tr.execs.size()));
    for (const ExecTrace& e : tr.execs) {
      h.mix(e.copy.process.get());
      h.mix(e.copy.copy);
      h.mix(e.start);
      h.mix(e.end);
      h.mix(e.died ? 1 : 0);
      h.mix(e.faults);
      h.mix(static_cast<std::int64_t>(e.attempt_starts.size()));
      for (Time t : e.attempt_starts) h.mix(t);
    }
    h.mix(static_cast<std::int64_t>(tr.txs.size()));
    for (const TxTrace& tx : tr.txs) {
      h.mix(tx.is_condition ? 1 : 0);
      h.mix(tx.msg.get());
      h.mix(tx.src_copy);
      h.mix(tx.cond_id);
      h.mix(tx.value ? 1 : 0);
      h.mix(tx.sender.get());
      h.mix(tx.ready);
      h.mix(tx.start);
      h.mix(tx.finish);
    }
    h.mix(static_cast<std::int64_t>(tr.reveals.size()));
    for (const Reveal& rv : tr.reveals) {
      h.mix(rv.cond_id);
      h.mix(rv.value ? 1 : 0);
      h.mix(rv.at);
    }
  }
  return h.value();
}

/// A fixed mix of plans: every fifth process replicated (k+1 copies), every
/// fifth hybrid (one extra replica), the rest checkpointed with 1-3
/// checkpoints; copy c of process i runs on the (i + c)-th allowed node.
PolicyAssignment mixed_assignment(const Application& app,
                                  const Architecture& arch, int k) {
  PolicyAssignment pa(app.process_count());
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    ProcessPlan plan;
    if (i % 5 == 0) {
      plan = make_replication_plan(k);
    } else if (i % 5 == 1) {
      plan = make_hybrid_plan(k, 1, 2);
    } else {
      plan = make_checkpointing_plan(k, 1 + i % 3);
    }
    std::vector<NodeId> allowed;
    for (int n = 0; n < arch.node_count(); ++n) {
      if (app.process(pid).can_run_on(NodeId{n})) allowed.push_back(NodeId{n});
    }
    for (int c = 0; c < plan.copy_count(); ++c) {
      plan.copies[static_cast<std::size_t>(c)].node =
          allowed[static_cast<std::size_t>(i + c) % allowed.size()];
    }
    pa.plan(pid) = plan;
  }
  return pa;
}

TEST(CondScheduler, TablesPinnedOnGeneratedInstances) {
  struct Case {
    int processes;
    int nodes;
    int k;
    double frozen;
    std::uint64_t seed;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {12, 2, 3, 0.0, 11, 0x395e8ddd1f55c480ULL},
      {16, 3, 2, 0.25, 12, 0xa579f5f380031c12ULL},
      {20, 2, 2, 0.15, 13, 0xedc8edb5d7ebed90ULL},
      {24, 3, 2, 0.0, 14, 0xfc5170a9cb3a8bd8ULL},
  };
  ThreadPool pool(3);
  for (const Case& c : cases) {
    TaskGenParams params;
    params.process_count = c.processes;
    params.node_count = c.nodes;
    params.frozen_process_fraction = c.frozen;
    params.frozen_message_fraction = c.frozen;
    Rng rng(c.seed);
    const Application app = generate_application(params, rng);
    const Architecture arch = generate_architecture(params);
    const FaultModel model{c.k};
    const PolicyAssignment pa = mixed_assignment(app, arch, c.k);

    CondScheduleOptions serial;
    serial.threads = 1;
    const CondScheduleResult r1 =
        conditional_schedule(app, arch, pa, model, serial);
    CondScheduleOptions parallel;
    parallel.threads = 4;
    parallel.pool = &pool;
    const CondScheduleResult r4 =
        conditional_schedule(app, arch, pa, model, parallel);

    const std::uint64_t h1 = fingerprint(r1, arch);
    EXPECT_EQ(h1, fingerprint(r4, arch)) << "seed " << c.seed;
    EXPECT_EQ(h1, c.expected)
        << "seed " << c.seed << ": 0x" << std::hex << h1 << std::dec
        << ", wcsl " << r1.wcsl << ", scenarios " << r1.scenario_count
        << ", entries " << r1.tables.total_entries() << ", frozen pins "
        << r1.frozen_starts.size();
  }
}

}  // namespace
}  // namespace ftes

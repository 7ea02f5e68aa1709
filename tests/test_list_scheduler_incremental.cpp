// Property tests of the incremental list scheduler
// (sched/list_scheduler.h): prefix-resume schedules must be bit-identical
// to from-scratch builds for random applications, architectures and moves,
// across snapshot intervals (including the interval = 1 and interval >=
// total-events edge cases); the heap-based ready/transmission queues must
// reproduce the historical linear scans exactly; and the EvalContext
// counters built on top (resumed events, heap pops, snapshot bytes) must
// be thread-count invariant.
#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "gen/taskgen.h"
#include "opt/eval_context.h"
#include "opt/policy_assignment.h"
#include "reference_list_schedule.h"
#include "util/random.h"

namespace ftes {
namespace {

struct Instance {
  Application app;
  Architecture arch;
};

Instance make_instance(int processes, int nodes, std::uint64_t seed) {
  TaskGenParams params;
  params.process_count = processes;
  params.node_count = nodes;
  Rng rng(seed);
  return Instance{generate_application(params, rng),
                  generate_architecture(params)};
}

/// A randomly mutated plan for `pid`: checkpoint-count change, remap of a
/// copy, or a policy-kind switch (the tabu search's three move families;
/// the last one changes the copy count and therefore the vertex layout).
ProcessPlan random_move(const Instance& inst, const PolicyAssignment& base,
                        ProcessId pid, const FaultModel& model, Rng& rng) {
  ProcessPlan plan = base.plan(pid);
  const Process& proc = inst.app.process(pid);
  std::vector<NodeId> allowed;
  for (NodeId n : inst.arch.node_ids()) {
    if (proc.can_run_on(n)) allowed.push_back(n);
  }
  switch (rng.index(3)) {
    case 0: {  // checkpoint count
      CopyPlan& cp = plan.copies[rng.index(plan.copies.size())];
      if (cp.checkpoints >= 1) {
        cp.checkpoints = 1 + static_cast<int>(rng.uniform_int(0, 7));
        break;
      }
      [[fallthrough]];
    }
    case 1: {  // remap one copy
      CopyPlan& cp = plan.copies[rng.index(plan.copies.size())];
      cp.node = allowed[rng.index(allowed.size())];
      break;
    }
    default: {  // policy switch (changes the copy structure)
      if (rng.chance(0.5)) {
        plan = make_replication_plan(model.k);
        for (CopyPlan& cp : plan.copies) {
          cp.node = allowed[rng.index(allowed.size())];
        }
      } else {
        plan = make_checkpointing_plan(
            model.k, 1 + static_cast<int>(rng.uniform_int(0, 5)));
        plan.copies[0].node = allowed[rng.index(allowed.size())];
      }
      break;
    }
  }
  return plan;
}

void expect_identical(const ListSchedule& a, const ListSchedule& b,
                      const char* what, int round) {
  ASSERT_EQ(a.makespan, b.makespan) << what << " round " << round;
  ASSERT_EQ(a.first_copy, b.first_copy) << what << " round " << round;
  ASSERT_EQ(a.copies.size(), b.copies.size()) << what << " round " << round;
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    EXPECT_EQ(a.copies[i].ref, b.copies[i].ref) << what << " copy " << i;
    EXPECT_EQ(a.copies[i].node, b.copies[i].node) << what << " copy " << i;
    EXPECT_EQ(a.copies[i].start, b.copies[i].start) << what << " copy " << i;
    EXPECT_EQ(a.copies[i].finish, b.copies[i].finish) << what << " copy " << i;
  }
  ASSERT_EQ(a.messages.size(), b.messages.size())
      << what << " round " << round;
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].msg, b.messages[i].msg) << what << " msg " << i;
    EXPECT_EQ(a.messages[i].src_copy, b.messages[i].src_copy)
        << what << " msg " << i;
    EXPECT_EQ(a.messages[i].sender, b.messages[i].sender)
        << what << " msg " << i;
    EXPECT_EQ(a.messages[i].ready, b.messages[i].ready) << what << " msg " << i;
    EXPECT_EQ(a.messages[i].start, b.messages[i].start) << what << " msg " << i;
    EXPECT_EQ(a.messages[i].finish, b.messages[i].finish)
        << what << " msg " << i;
  }
  EXPECT_EQ(a.node_order, b.node_order) << what << " round " << round;
  EXPECT_EQ(a.bus_order, b.bus_order) << what << " round " << round;
}

TEST(ListSchedulerIncremental, HeapSchedulerMatchesLinearScanReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = make_instance(10 + static_cast<int>(seed) * 3,
                                        2 + static_cast<int>(seed % 3), seed);
    const FaultModel model{1 + static_cast<int>(seed % 3)};
    PolicyAssignment pa =
        greedy_initial(inst.app, inst.arch, model,
                       seed % 2 == 0 ? PolicySpace::kCheckpointingOnly
                                     : PolicySpace::kFull,
                       8);
    const ListSchedule heap_based = list_schedule(inst.app, inst.arch, pa);
    const ListSchedule reference =
        ftes::testing::reference_list_schedule(inst.app, inst.arch, pa);
    expect_identical(heap_based, reference, "heap-vs-scan",
                     static_cast<int>(seed));
  }
}

TEST(ListSchedulerIncremental, ResumeMatchesFullRebuildForRandomMoves) {
  // Snapshot intervals: default (~sqrt(E)), the dense edge case (1), and an
  // interval past the event count (only the initial snapshot exists, so
  // every "resume" degenerates to a full rebuild -- still exact).
  for (const int interval : {0, 1, 1 << 20}) {
    const Instance inst = make_instance(22, 3, 1234);
    const FaultModel model{2};
    PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                           PolicySpace::kCheckpointingOnly, 8);
    ScheduleCheckpointLog log;
    ListSchedule base_sched =
        list_schedule(inst.app, inst.arch, base, log, interval);

    Rng rng(99 + static_cast<std::uint64_t>(interval));
    for (int move = 0; move < 120; ++move) {
      const ProcessId pid{static_cast<std::int32_t>(
          rng.index(static_cast<std::size_t>(inst.app.process_count())))};
      PolicyAssignment candidate = base;
      candidate.plan(pid) = random_move(inst, base, pid, model, rng);

      ListScheduleResumeStats stats;
      const ListSchedule resumed = list_schedule_resume(
          inst.app, inst.arch, base, log, candidate, pid, &stats);
      const ListSchedule full = list_schedule(inst.app, inst.arch, candidate);
      expect_identical(resumed, full, "resume-vs-full", move);
      EXPECT_EQ(stats.events_total,
                stats.events_resumed + stats.events_replayed);

      // Occasionally accept the move so later resumes run against fresh
      // bases (and fresh logs).
      if (move % 13 == 0) {
        base = std::move(candidate);
        base_sched = list_schedule(inst.app, inst.arch, base, log, interval);
      }
    }
  }
}

TEST(ListSchedulerIncremental, ResumeActuallySkipsEventsForSinkMoves) {
  const Instance inst = make_instance(30, 3, 77);
  const FaultModel model{2};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  ScheduleCheckpointLog log;
  (void)list_schedule(inst.app, inst.arch, base, log);

  // A checkpoint flip on the last process in topological order affects only
  // the tail of the event sequence; a healthy log must resume past a
  // non-trivial prefix.
  const ProcessId pid = inst.app.topological_order().back();
  PolicyAssignment candidate = base;
  candidate.plan(pid).copies[0].checkpoints =
      candidate.plan(pid).copies[0].checkpoints == 1 ? 2 : 1;
  ListScheduleResumeStats stats;
  const ListSchedule resumed = list_schedule_resume(
      inst.app, inst.arch, base, log, candidate, pid, &stats);
  expect_identical(resumed, list_schedule(inst.app, inst.arch, candidate),
                   "sink-move", 0);
  EXPECT_TRUE(stats.resumed);
  EXPECT_GT(stats.events_resumed, 0u);
  EXPECT_GT(stats.heap_pops, 0u);
}

TEST(ListSchedulerIncremental, EvalContextReportsResumesAcrossAcceptedRebase) {
  const Instance inst = make_instance(24, 3, 5);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // Evaluate one move and rebase onto exactly that move: the from-scratch
  // rebase must reproduce the move's incremental outcome.
  const ProcessId pid = inst.app.topological_order().back();
  ProcessPlan plan = base.plan(pid);
  plan.copies[0].checkpoints = plan.copies[0].checkpoints == 1 ? 2 : 1;
  const EvalContext::Outcome moved = eval.evaluate_move(pid, plan);

  PolicyAssignment accepted = base;
  accepted.plan(pid) = plan;
  const EvalContext::Outcome rebased = eval.rebase(accepted);
  EXPECT_EQ(moved.makespan, rebased.makespan);
  EXPECT_EQ(moved.cost, rebased.cost);

  const EvalStats stats = eval.stats();
  EXPECT_EQ(stats.ls_resumes + stats.ls_full_builds, 1);
  EXPECT_GT(stats.ls_events_total, 0);
  EXPECT_GT(stats.heap_pops, 0);
  // The rebase must leave the evaluator fully usable.
  const EvalContext::Outcome after = eval.evaluate_move(pid, base.plan(pid));
  PolicyAssignment back = accepted;
  back.plan(pid) = base.plan(pid);
  EXPECT_EQ(after.makespan,
            evaluate_wcsl(inst.app, inst.arch, back, model).makespan);
}

TEST(ListSchedulerIncremental, OptimizerCountersAreThreadCountInvariant) {
  const Instance inst = make_instance(20, 3, 31);
  const FaultModel model{3};
  OptimizeOptions opts;
  opts.iterations = 25;
  opts.neighborhood = 8;
  opts.seed = 42;

  auto run = [&](int threads) {
    OptimizeOptions o = opts;
    o.threads = threads;
    return optimize_policy_and_mapping(inst.app, inst.arch, model, o);
  };
  const OptimizeResult serial = run(1);
  const OptimizeResult parallel = run(4);
  EXPECT_EQ(serial.wcsl, parallel.wcsl);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.eval_stats.ls_resumes, parallel.eval_stats.ls_resumes);
  EXPECT_EQ(serial.eval_stats.ls_events_resumed,
            parallel.eval_stats.ls_events_resumed);
  EXPECT_EQ(serial.eval_stats.ls_events_total,
            parallel.eval_stats.ls_events_total);
  EXPECT_EQ(serial.eval_stats.heap_pops, parallel.eval_stats.heap_pops);
  // The accepted-move rebase path runs on the serial accept step, so its
  // counters -- including raw byte counts -- must be exactly thread-count
  // invariant too.
  EXPECT_EQ(serial.eval_stats.snapshot_bytes_copied,
            parallel.eval_stats.snapshot_bytes_copied);
  for (int i = 0; i < inst.app.process_count(); ++i) {
    EXPECT_EQ(serial.assignment.plan(ProcessId{i}),
              parallel.assignment.plan(ProcessId{i}))
        << "process " << i;
  }
}

}  // namespace
}  // namespace ftes

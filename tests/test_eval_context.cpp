// Tests of the incremental evaluation context (opt/eval_context.h): move
// evaluations resumed from the base's checkpoint log must be bit-identical
// to a from-scratch evaluation for every move family, and thread-safe
// under the parallel neighborhood evaluation.
#include "opt/eval_context.h"

#include <gtest/gtest.h>

#include <vector>

#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "sched/list_scheduler.h"
#include "sched/wcsl.h"
#include "util/random.h"
#include "util/thread_pool.h"

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
/// copy, or a policy-kind switch (the tabu search's three move families).
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
        plan = make_checkpointing_plan(model.k,
                                       1 + static_cast<int>(rng.uniform_int(0, 5)));
        plan.copies[0].node = allowed[rng.index(allowed.size())];
      }
      break;
    }
  }
  return plan;
}

TEST(EvalContext, IncrementalMatchesFullForRandomMoves) {
  const Instance inst = make_instance(18, 3, 77);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  Rng rng(4242);
  for (int move = 0; move < 150; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, pid, model, rng);

    PolicyAssignment candidate = base;
    candidate.plan(pid) = plan;
    const WcslResult full =
        evaluate_wcsl(inst.app, inst.arch, candidate, model);
    const Time full_cost =
        assignment_cost(inst.app, inst.arch, candidate, model);

    const EvalContext::Outcome incremental = eval.evaluate_move(pid, plan);
    ASSERT_EQ(incremental.makespan, full.makespan) << "move " << move;
    ASSERT_EQ(incremental.cost, full_cost) << "move " << move;

    // Occasionally accept the move so later diffs run against fresh bases.
    if (move % 17 == 0) {
      base = std::move(candidate);
      eval.rebase(base);
    }
  }
}

TEST(EvalContext, RebaseOutcomeMatchesFullEvaluation) {
  const Instance inst = make_instance(14, 2, 5);
  const FaultModel model{3};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  const EvalContext::Outcome out = eval.rebase(base);
  EXPECT_EQ(out.makespan,
            evaluate_wcsl(inst.app, inst.arch, base, model).makespan);
  EXPECT_EQ(out.cost, assignment_cost(inst.app, inst.arch, base, model));
}

TEST(EvalContext, FaultFreeMakespanMatchesListSchedule) {
  const Instance inst = make_instance(16, 3, 21);
  const FaultModel model{0};
  PolicyAssignment base = strip_fault_tolerance(
      inst.app, greedy_initial(inst.app, inst.arch, FaultModel{1},
                               PolicySpace::kReexecutionOnly, 4));
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase_fault_free(base);

  Rng rng(3);
  for (int move = 0; move < 40; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const Process& proc = inst.app.process(pid);
    std::vector<NodeId> allowed;
    for (NodeId n : inst.arch.node_ids()) {
      if (proc.can_run_on(n)) allowed.push_back(n);
    }
    ProcessPlan plan = base.plan(pid);
    plan.copies[0].node = allowed[rng.index(allowed.size())];

    PolicyAssignment candidate = base;
    candidate.plan(pid) = plan;
    EXPECT_EQ(eval.fault_free_makespan(pid, plan),
              list_schedule(inst.app, inst.arch, candidate).makespan);
  }

  // A fault-free rebase caches the same base as rebase(): WCSL move
  // evaluations run against it under a fault model with k >= 1.
  const FaultModel faulty{2};
  const PolicyAssignment ft_base = greedy_initial(
      inst.app, inst.arch, faulty, PolicySpace::kCheckpointingOnly, 8);
  EvalContext ft_eval(inst.app, inst.arch, faulty);
  ft_eval.rebase_fault_free(ft_base);
  for (int move = 0; move < 20; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, ft_base, pid, faulty, rng);
    PolicyAssignment candidate = ft_base;
    candidate.plan(pid) = plan;
    EXPECT_EQ(ft_eval.evaluate_move(pid, plan).makespan,
              evaluate_wcsl(inst.app, inst.arch, candidate, faulty).makespan)
        << "move " << move;
  }
}

TEST(EvalContext, ConcurrentMoveEvaluationsMatchSerial) {
  const Instance inst = make_instance(20, 3, 55);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // One fixed move per process: flip copy 0's checkpoint count.
  std::vector<ProcessPlan> moves;
  for (int i = 0; i < inst.app.process_count(); ++i) {
    ProcessPlan plan = base.plan(ProcessId{i});
    plan.copies[0].checkpoints = plan.copies[0].checkpoints == 1 ? 3 : 1;
    moves.push_back(std::move(plan));
  }

  std::vector<Time> serial(moves.size(), 0);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    serial[i] = eval.evaluate_move(ProcessId{static_cast<std::int32_t>(i)},
                                   moves[i])
                    .cost;
  }

  ThreadPool pool(3);  // real helpers even on single-core hosts
  std::vector<Time> parallel(moves.size(), 0);
  parallel_for(pool, moves.size(), 4, [&](std::size_t i) {
    parallel[i] = eval.evaluate_move(ProcessId{static_cast<std::int32_t>(i)},
                                     moves[i])
                      .cost;
  });
  EXPECT_EQ(serial, parallel);
}

// Regression guard for the accepted-move path (ROADMAP: "resume logs for
// accepted moves"): the rebase onto the neighborhood's best move must
// reproduce that move's evaluated cost and rebuild the base schedule's
// checkpoint log -- otherwise the next round of list_schedule_resume would
// replay against a stale log and silently produce wrong schedules.  The
// test accepts the best of a neighborhood, then pins (a) that subsequent
// incremental evaluations against the new base are bit-identical to
// from-scratch evaluations and (b) that they are actually served by
// snapshot resumes from the fresh log.
TEST(EvalContext, AcceptedMoveRebaseLeavesUsableCheckpointLog) {
  const Instance inst = make_instance(20, 3, 31);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // Candidate moves: every other checkpoint count of one process.
  const ProcessId pid = inst.app.topological_order().front();
  std::vector<ProcessPlan> moves;
  for (int count = 1; count <= 6; ++count) {
    ProcessPlan plan = base.plan(pid);
    plan.copies[0].checkpoints = count;
    if (plan == base.plan(pid)) continue;
    moves.push_back(std::move(plan));
  }
  ASSERT_GE(moves.size(), 2u);

  Time best_cost = kTimeInfinity;
  std::size_t best = 0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const Time cost = eval.evaluate_move(pid, moves[i]).cost;
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }

  // Accept the best move.
  const EvalStats before = eval.stats();
  base.plan(pid) = moves[best];
  const EvalContext::Outcome accepted = eval.rebase(base);
  EXPECT_EQ(accepted.cost, best_cost);

  // Next round: moves against the new base must resume from the freshly
  // recorded log and match from-scratch evaluations exactly.
  Rng rng(77);
  for (int round = 0; round < 25; ++round) {
    const ProcessId mover{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, mover, model, rng);
    PolicyAssignment candidate = base;
    candidate.plan(mover) = plan;
    const EvalContext::Outcome incremental = eval.evaluate_move(mover, plan);
    EXPECT_EQ(incremental.makespan,
              evaluate_wcsl(inst.app, inst.arch, candidate, model).makespan)
        << "round " << round;
  }
  const EvalStats next_round = eval.stats().since(before);
  EXPECT_GT(next_round.ls_events_resumed, 0)
      << "post-rebase evaluations must be served by the rebuilt log";
}

// A run of accepted checkpoint flips -- the common accepted move -- must
// stay bit-identical to from-scratch evaluation after every rebase, and
// leave the evaluator exact for the next neighborhood.
TEST(EvalContext, AcceptRunStaysExact) {
  const Instance inst = make_instance(26, 3, 99);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // Cycle over the three latest processes in topological order to keep
  // the resumable prefix long.
  const auto& topo = inst.app.topological_order();
  for (int accept = 0; accept < 9; ++accept) {
    const ProcessId pid = topo[topo.size() - 1 -
                               static_cast<std::size_t>(accept % 3)];
    ProcessPlan plan = base.plan(pid);
    plan.copies[0].checkpoints = plan.copies[0].checkpoints == 1 ? 2 : 1;
    base.plan(pid) = plan;
    const EvalContext::Outcome out = eval.rebase(base);
    EXPECT_EQ(out.makespan,
              evaluate_wcsl(inst.app, inst.arch, base, model).makespan)
        << "accept " << accept;
    EXPECT_EQ(out.cost, assignment_cost(inst.app, inst.arch, base, model))
        << "accept " << accept;
  }

  // The evaluator must still be exact for the next neighborhood.
  Rng rng(808);
  for (int round = 0; round < 15; ++round) {
    const ProcessId mover{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, mover, model, rng);
    PolicyAssignment candidate = base;
    candidate.plan(mover) = plan;
    EXPECT_EQ(eval.evaluate_move(mover, plan).makespan,
              evaluate_wcsl(inst.app, inst.arch, candidate, model).makespan)
        << "round " << round;
  }
}

// Random accepted moves of all three families: every rebase must stay
// exact, and so must the next neighborhood's move evaluations (WCSL and
// fault-free) resumed from the last rebuilt log -- including moves that
// change the moved process's copy count, which remap the vertex ids of
// every later process during the resume.  The search engine keeps an
// accepted candidate's evaluated objective as the new incumbent's, so each
// accepted move's incremental evaluation (its schedule resumed from the
// old base's log) must also equal the from-scratch rebase onto it.
TEST(EvalContext, RandomAcceptChainStaysExact) {
  const Instance inst = make_instance(18, 3, 404);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  Rng rng(1717);
  int accepted_copy_count_changes = 0;
  for (int accept = 0; accept < 12; ++accept) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, pid, model, rng);
    if (plan.copy_count() != base.plan(pid).copy_count()) {
      ++accepted_copy_count_changes;
    }
    const EvalContext::Outcome evaluated = eval.evaluate_move(pid, plan);
    base.plan(pid) = plan;
    const EvalContext::Outcome out = eval.rebase(base);
    EXPECT_EQ(evaluated.makespan, out.makespan) << "accept " << accept;
    EXPECT_EQ(evaluated.cost, out.cost) << "accept " << accept;
    EXPECT_EQ(out.makespan,
              evaluate_wcsl(inst.app, inst.arch, base, model).makespan)
        << "accept " << accept;
  }
  EXPECT_GE(accepted_copy_count_changes, 3);

  const EvalStats before = eval.stats();
  int copy_count_changes = 0;
  for (int round = 0; round < 30; ++round) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    ProcessPlan plan = random_move(inst, base, pid, model, rng);
    if (round % 3 == 0) {
      // Force a policy switch that changes the copy count.
      const NodeId node = base.plan(pid).copies[0].node;
      if (base.plan(pid).copy_count() == 1) {
        plan = make_replication_plan(model.k);
        for (CopyPlan& cp : plan.copies) cp.node = node;
      } else {
        plan = make_checkpointing_plan(model.k, 2);
        plan.copies[0].node = node;
      }
    }
    if (plan.copy_count() != base.plan(pid).copy_count()) ++copy_count_changes;
    PolicyAssignment candidate = base;
    candidate.plan(pid) = plan;
    EXPECT_EQ(eval.evaluate_move(pid, plan).makespan,
              evaluate_wcsl(inst.app, inst.arch, candidate, model).makespan)
        << "round " << round;
    EXPECT_EQ(eval.fault_free_makespan(pid, plan),
              list_schedule(inst.app, inst.arch, candidate).makespan)
        << "round " << round;
  }
  EXPECT_GE(copy_count_changes, 10);
  EXPECT_GT(eval.stats().since(before).ls_resumes, 0)
      << "no post-chain evaluation resumed from the rebuilt log";
}

TEST(EvalContext, EvaluateMoveWithoutRebaseThrows) {
  const Instance inst = make_instance(6, 2, 1);
  const FaultModel model{1};
  EvalContext eval(inst.app, inst.arch, model);
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kReexecutionOnly, 4);
  EXPECT_THROW((void)eval.evaluate_move(ProcessId{0}, base.plan(ProcessId{0})),
               std::logic_error);
}

}  // namespace
}  // namespace ftes

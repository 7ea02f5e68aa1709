// Tests of the design-space exploration (Section 6): policy assignment,
// mapping, checkpoint optimization and the Fig. 7/8 baselines.
#include <gtest/gtest.h>

#include "fault/recovery.h"
#include "gen/taskgen.h"
#include "opt/baselines.h"
#include "opt/checkpoint_opt.h"
#include "opt/mapping_opt.h"
#include "opt/policy_assignment.h"
#include "sched/wcsl.h"

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
  Instance inst{generate_application(params, rng),
                generate_architecture(params)};
  return inst;
}

OptimizeOptions quick_options(std::uint64_t seed) {
  OptimizeOptions opts;
  opts.iterations = 60;
  opts.neighborhood = 10;
  opts.seed = seed;
  return opts;
}

TEST(GreedyInitial, ProducesValidAssignments) {
  const Instance inst = make_instance(30, 3, 11);
  const FaultModel fm{3};
  for (PolicySpace space :
       {PolicySpace::kReexecutionOnly, PolicySpace::kCheckpointingOnly,
        PolicySpace::kReplicationOnly, PolicySpace::kFull}) {
    const PolicyAssignment pa =
        greedy_initial(inst.app, inst.arch, fm, space, 8);
    EXPECT_NO_THROW(pa.validate(inst.app, fm));
  }
}

TEST(GreedyInitial, RespectsFixedMappings) {
  Instance inst = make_instance(20, 3, 12);
  // Fix a process that can run on node 0.
  for (int i = 0; i < inst.app.process_count(); ++i) {
    if (inst.app.process(ProcessId{i}).can_run_on(NodeId{0})) {
      inst.app.process(ProcessId{i}).fixed_mapping = NodeId{0};
      break;
    }
  }
  const FaultModel fm{2};
  const PolicyAssignment pa = greedy_initial(
      inst.app, inst.arch, fm, PolicySpace::kReexecutionOnly, 8);
  EXPECT_NO_THROW(pa.validate(inst.app, fm));
}

TEST(TabuSearch, NeverWorseThanGreedyStart) {
  const Instance inst = make_instance(25, 3, 13);
  const FaultModel fm{3};
  const OptimizeOptions opts = quick_options(13);
  const PolicyAssignment initial =
      greedy_initial(inst.app, inst.arch, fm, PolicySpace::kFull,
                     opts.max_checkpoints);
  const Time initial_cost =
      evaluate_wcsl(inst.app, inst.arch, initial, fm).makespan;
  const OptimizeResult result =
      optimize_from(inst.app, inst.arch, fm, opts, initial);
  EXPECT_LE(result.wcsl, initial_cost);
  EXPECT_NO_THROW(result.assignment.validate(inst.app, fm));
  EXPECT_GT(result.evaluations, 1);
}

TEST(TabuSearch, ResultIsValidAcrossSpaces) {
  const Instance inst = make_instance(20, 4, 14);
  const FaultModel fm{3};
  for (PolicySpace space :
       {PolicySpace::kReexecutionOnly, PolicySpace::kReplicationOnly,
        PolicySpace::kFull}) {
    OptimizeOptions opts = quick_options(14);
    opts.space = space;
    if (space != PolicySpace::kFull) opts.optimize_checkpoints = false;
    const OptimizeResult r =
        optimize_policy_and_mapping(inst.app, inst.arch, fm, opts);
    EXPECT_NO_THROW(r.assignment.validate(inst.app, fm)) << static_cast<int>(space);
    EXPECT_GT(r.wcsl, 0);
  }
}

TEST(Baselines, FullSpaceDominatesRestrictedSpaces) {
  // MXR explores a superset of MX's and MR's spaces; with a shared seed and
  // budget it should (almost surely) not be worse than both on average.
  // We assert the average over instances to keep the test robust.
  double mxr_sum = 0, mx_sum = 0, mr_sum = 0, sfx_sum = 0;
  const int instances = 3;
  for (int i = 0; i < instances; ++i) {
    const Instance inst = make_instance(20, 3, 100 + static_cast<std::uint64_t>(i));
    const FaultModel fm{3};
    const OptimizeOptions opts = quick_options(100 + static_cast<std::uint64_t>(i));
    mxr_sum += static_cast<double>(run_mxr(inst.app, inst.arch, fm, opts).wcsl);
    mx_sum += static_cast<double>(run_mx(inst.app, inst.arch, fm, opts).wcsl);
    mr_sum += static_cast<double>(run_mr(inst.app, inst.arch, fm, opts).wcsl);
    sfx_sum += static_cast<double>(run_sfx(inst.app, inst.arch, fm, opts).wcsl);
  }
  EXPECT_LE(mxr_sum, mx_sum * 1.02);  // small tolerance for heuristic noise
  EXPECT_LE(mxr_sum, mr_sum * 1.02);
  EXPECT_LE(mx_sum, sfx_sum * 1.05);  // FT-aware mapping helps re-execution
}

TEST(Baselines, NonFtReferenceIsShortest) {
  const Instance inst = make_instance(22, 3, 19);
  const FaultModel fm{3};
  const OptimizeOptions opts = quick_options(19);
  const Time nft = non_ft_reference(inst.app, inst.arch, opts);
  EXPECT_LT(nft, run_mxr(inst.app, inst.arch, fm, opts).wcsl);
}

TEST(MappingOpt, ImprovesOrMatchesGreedy) {
  const Instance inst = make_instance(30, 4, 21);
  MappingOptOptions opts;
  opts.iterations = 80;
  opts.seed = 21;
  const MappingOptResult r = optimize_mapping_no_ft(inst.app, inst.arch, opts);
  EXPECT_GT(r.makespan, 0);
  // All copies plain (no FT overheads).
  for (int i = 0; i < inst.app.process_count(); ++i) {
    EXPECT_EQ(r.assignment.plan(ProcessId{i}).copies[0].checkpoints, 0);
    EXPECT_EQ(r.assignment.plan(ProcessId{i}).copies[0].recoveries, 0);
  }
}

// --- checkpoint optimization ----------------------------------------------

TEST(CheckpointOpt, LocalAssignmentMatchesClosedForm) {
  const Instance inst = make_instance(15, 2, 23);
  const FaultModel fm{4};
  PolicyAssignment pa = greedy_initial(inst.app, inst.arch, fm,
                                       PolicySpace::kCheckpointingOnly, 8);
  apply_local_checkpointing(inst.app, pa, 8);
  for (int i = 0; i < inst.app.process_count(); ++i) {
    const Process& p = inst.app.process(ProcessId{i});
    const CopyPlan& c = pa.plan(ProcessId{i}).copies[0];
    RecoveryParams params{p.wcet_on(c.node), p.alpha, p.mu, p.chi};
    EXPECT_EQ(c.checkpoints, optimal_checkpoints_local(params, c.recoveries, 8));
  }
}

TEST(CheckpointOpt, GlobalNeverWorseThanLocal) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const Instance inst = make_instance(18, 3, seed);
    const FaultModel fm{3};
    PolicyAssignment pa = greedy_initial(inst.app, inst.arch, fm,
                                         PolicySpace::kCheckpointingOnly, 8);
    apply_local_checkpointing(inst.app, pa, 8);
    const Time local = evaluate_wcsl(inst.app, inst.arch, pa, fm).makespan;
    CheckpointOptOptions refine;
    refine.max_checkpoints = 8;
    const CheckpointOptResult global =
        optimize_checkpoints_global(inst.app, inst.arch, fm, pa, refine);
    EXPECT_LE(global.wcsl, local) << "seed " << seed;
  }
}

TEST(CheckpointOpt, GreedyMatchesExactOnTinyInstances) {
  // The coordinate descent should land close to the exhaustive optimum on
  // instances small enough to enumerate (the ILP stand-in oracle).
  const Instance inst = make_instance(5, 2, 41);
  const FaultModel fm{2};
  PolicyAssignment pa = greedy_initial(inst.app, inst.arch, fm,
                                       PolicySpace::kCheckpointingOnly, 4);
  CheckpointOptOptions refine;
  refine.max_checkpoints = 4;
  const CheckpointOptResult greedy =
      optimize_checkpoints_global(inst.app, inst.arch, fm, pa, refine);
  const CheckpointOptResult exact =
      optimize_checkpoints_exact(inst.app, inst.arch, fm, pa, 4);
  EXPECT_GE(greedy.wcsl, exact.wcsl);
  EXPECT_LE(static_cast<double>(greedy.wcsl),
            1.05 * static_cast<double>(exact.wcsl));
}

TEST(CheckpointOpt, ExactGuardsSearchSpace) {
  const Instance inst = make_instance(30, 2, 43);
  const FaultModel fm{2};
  PolicyAssignment pa = greedy_initial(inst.app, inst.arch, fm,
                                       PolicySpace::kCheckpointingOnly, 8);
  EXPECT_THROW(
      optimize_checkpoints_exact(inst.app, inst.arch, fm, pa, 8, 1000),
      std::length_error);
}

}  // namespace
}  // namespace ftes

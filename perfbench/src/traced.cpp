#include "traced.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/pipeline.h"
#include "opt/checkpoint_opt.h"
#include "opt/eval_context.h"
#include "opt/policy_assignment.h"
#include "sched/cond_scheduler.h"
#include "sched/list_scheduler.h"
#include "sched/wcsl.h"
#include "stats.h"
#include "util/random.h"

namespace perfbench {

namespace {

using ftes::ListSchedule;
using ftes::PolicyAssignment;
using ftes::ProcessId;
using ftes::ProcessPlan;
using ftes::ScheduleCheckpointLog;
using ftes::Time;

struct Move {
  ProcessId pid;
  ProcessPlan plan;
};

/// Totals the probe accumulates besides its spans.
struct ProbeCounts {
  double events = 0;          ///< placement events of the full builds
  double resume_events = 0;   ///< events the resumed candidates needed
  double resume_served = 0;   ///< of those, served by a snapshot prefix
  double resume_replayed = 0;
  double heap_pops = 0;
  double dag_edges = 0;
  double dags = 0;
};

/// Stage-run totals: the shared EvalContext's counters and the tables.
struct StageCounts {
  ftes::EvalStats eval;
  double scenarios = 0;
  double table_entries = 0;
};

std::vector<ftes::NodeId> allowed_nodes(const ftes::Process& proc,
                                        const ftes::Architecture& arch) {
  std::vector<ftes::NodeId> nodes;
  for (ftes::NodeId n : arch.node_ids()) {
    if (proc.can_run_on(n)) nodes.push_back(n);
  }
  return nodes;
}

/// `count` distinct allowed nodes starting with `home`, or nothing when
/// the process may not run on that many.
std::optional<std::vector<ftes::NodeId>> distinct_nodes(
    std::vector<ftes::NodeId> allowed, ftes::NodeId home, int count,
    ftes::Rng& rng) {
  allowed.erase(std::remove(allowed.begin(), allowed.end(), home),
                allowed.end());
  if (static_cast<int>(allowed.size()) + 1 < count) return std::nullopt;
  rng.shuffle(allowed);
  allowed.insert(allowed.begin(), home);
  allowed.resize(static_cast<std::size_t>(count));
  return allowed;
}

/// One move of the tabu search's three families against `base`: remap a
/// copy, switch the policy kind, or move a checkpoint count by +-1/+-2.
/// Returns nothing when the drawn move is not applicable.
std::optional<Move> sample_move(const Instance& inst,
                                const PolicyAssignment& base, int k,
                                int max_checkpoints, ftes::Rng& rng) {
  const ProcessId pid{static_cast<std::int32_t>(
      rng.index(static_cast<std::size_t>(inst.app.process_count())))};
  const ftes::Process& proc = inst.app.process(pid);
  const std::vector<ftes::NodeId> allowed = allowed_nodes(proc, inst.arch);
  ProcessPlan plan = base.plan(pid);
  const ftes::NodeId home = plan.copies[0].node;
  switch (rng.index(3)) {
    case 0: {  // remap one copy onto a node no other copy uses
      const std::size_t copy = rng.index(plan.copies.size());
      if (copy == 0 && proc.fixed_mapping) return std::nullopt;
      std::vector<ftes::NodeId> free;
      for (ftes::NodeId n : allowed) {
        bool used = false;
        for (const ftes::CopyPlan& c : plan.copies) used = used || c.node == n;
        if (!used) free.push_back(n);
      }
      if (free.empty()) return std::nullopt;
      plan.copies[copy].node = free[rng.index(free.size())];
      break;
    }
    case 1: {  // switch checkpointing / replication / hybrid
      if (proc.fixed_policy) return std::nullopt;
      const int kind = static_cast<int>(rng.index(k >= 2 ? 3 : 2));
      const int checkpoints = 1 + static_cast<int>(rng.index(3));
      ProcessPlan next;
      if (kind == 0) {
        next = ftes::make_checkpointing_plan(k, checkpoints);
      } else if (kind == 1) {
        next = ftes::make_replication_plan(k);
      } else {
        next = ftes::make_hybrid_plan(
            k, static_cast<int>(rng.uniform_int(1, k - 1)), checkpoints);
      }
      if (next.kind == plan.kind) return std::nullopt;
      const auto nodes =
          distinct_nodes(allowed, home, next.copy_count(), rng);
      if (!nodes) return std::nullopt;
      for (int j = 0; j < next.copy_count(); ++j) {
        next.copies[static_cast<std::size_t>(j)].node =
            (*nodes)[static_cast<std::size_t>(j)];
      }
      plan = std::move(next);
      break;
    }
    default: {  // checkpoint count +-1 / +-2 on a checkpointed copy
      std::vector<std::size_t> checkpointed;
      for (std::size_t j = 0; j < plan.copies.size(); ++j) {
        if (plan.copies[j].checkpoints >= 1) checkpointed.push_back(j);
      }
      if (checkpointed.empty()) return std::nullopt;
      ftes::CopyPlan& c = plan.copies[checkpointed[rng.index(
          checkpointed.size())]];
      const int deltas[] = {-2, -1, 1, 2};
      const int next = std::clamp(c.checkpoints + deltas[rng.index(4)], 1,
                                  max_checkpoints);
      if (next == c.checkpoints) return std::nullopt;
      c.checkpoints = next;
      break;
    }
  }
  return Move{pid, std::move(plan)};
}

class TracedProblem {
 public:
  TracedProblem(const Workload& workload, const Problem& problem, int index,
                std::uint64_t probe_seed, Tracer& tracer,
                std::vector<std::string>& errors)
      : workload_(workload),
        problem_(problem),
        index_(index),
        rng_(probe_seed),
        tracer_(tracer),
        errors_(errors) {}

  /// The pipeline's stages called one by one on one shared EvalContext,
  /// as core/pipeline.cpp's stages call them; returns the final design.
  ftes::SynthesisResult run_stages(StageCounts& counts) {
    ScopedSpan root(tracer_, "problem", index_);
    {
      ScopedSpan span(tracer_, "gen.generate", index_);
      inst_ = generate(problem_);
    }
    std::optional<ftes::SynthesisContext> ctx;
    {
      ScopedSpan span(tracer_, "core.context", index_);
      ctx.emplace(inst_.app, inst_.arch, problem_.options);
    }
    const ftes::SynthesisOptions& o = ctx->options();
    ftes::SynthesisResult r;
    {
      ScopedSpan span(tracer_, "core.policy_assignment", index_);
      ftes::OptimizeOptions opt = o.optimize;
      opt.eval = &ctx->eval();
      opt.cancel = &ctx->cancel_token();
      ftes::OptimizeResult pa = ftes::optimize_policy_and_mapping(
          ctx->app(), ctx->arch(), ctx->model(), opt);
      r.assignment = std::move(pa.assignment);
      r.evaluations = pa.evaluations;
    }
    if (o.refine_checkpoints && o.optimize.optimize_checkpoints) {
      ScopedSpan span(tracer_, "core.checkpoint_refine", index_);
      ftes::CheckpointOptOptions opt;
      opt.max_checkpoints = o.optimize.max_checkpoints;
      opt.threads = o.optimize.threads;
      opt.pool = o.optimize.pool;
      opt.eval = &ctx->eval();
      opt.cancel = &ctx->cancel_token();
      ftes::CheckpointOptResult cp = ftes::optimize_checkpoints_global(
          ctx->app(), ctx->arch(), ctx->model(), std::move(r.assignment),
          opt);
      r.assignment = std::move(cp.assignment);
      r.evaluations += cp.evaluations;
    }
    {
      ScopedSpan span(tracer_, "core.schedule_tables", index_);
      {
        ScopedSpan full(tracer_, "opt.evaluate_full", index_);
        r.wcsl = ctx->eval().evaluate_full(r.assignment);
      }
      r.schedulable = r.wcsl.meets_deadlines(ctx->app());
      if (o.build_schedule_tables) {
        ScopedSpan tables(tracer_, "sched.cond_schedule", index_);
        ftes::CondScheduleOptions so = o.schedule;
        so.threads = o.optimize.threads;
        so.pool = o.optimize.pool;
        so.cancel = &ctx->cancel_token();
        try {
          r.schedule = ftes::conditional_schedule(
              ctx->app(), ctx->arch(), r.assignment, ctx->model(), so);
          r.schedulable =
              r.schedulable || r.schedule->wcsl <= ctx->app().deadline();
        } catch (const std::length_error&) {
          // The pipeline downgrades the same way (analytic bound only).
        }
      }
    }
    counts.eval.add(ctx->eval().stats());
    if (r.schedule) {
      counts.scenarios += r.schedule->scenario_count;
      counts.table_entries += r.schedule->tables.total_entries();
    }
    return r;
  }

  /// Probes the evaluation layers on a sampled move stream against
  /// `start`, rebasing onto each batch's best move; every probed call is
  /// checked against a from-scratch computation.
  void probe(const PolicyAssignment& start, ProbeCounts& counts) {
    ScopedSpan root(tracer_, "probe", index_);
    const ftes::FaultModel& model = problem_.options.fault_model;
    const int k = model.k;
    const ftes::Application& app = inst_.app;
    const ftes::Architecture& arch = inst_.arch;
    ftes::EvalContext eval(app, arch, model);
    PolicyAssignment base = start;
    (void)eval.rebase(base);
    ScheduleCheckpointLog log;
    (void)ftes::list_schedule(app, arch, base, log);

    for (int b = 0; b < workload_.probe_batches; ++b) {
      std::optional<Move> best;
      Time best_cost = 0;
      Time best_makespan = 0;
      int drawn = 0;
      for (int attempt = 0; drawn < workload_.probe_neighborhood &&
                            attempt < 50 * workload_.probe_neighborhood;
           ++attempt) {
        std::optional<Move> move =
            sample_move(inst_, base, k,
                        problem_.options.optimize.max_checkpoints, rng_);
        if (!move) continue;
        ++drawn;
        PolicyAssignment cand = base;
        cand.plan(move->pid) = move->plan;
        const ftes::EvalContext::Outcome out = probe_move(
            eval, base, log, cand, *move, counts);
        if (!best || out.cost < best_cost) {
          best_cost = out.cost;
          best_makespan = out.makespan;
          best = std::move(move);
        }
      }
      if (!best) break;
      base.plan(best->pid) = best->plan;
      ftes::EvalContext::Outcome rebased;
      {
        ScopedSpan span(tracer_, "opt.rebase", index_);
        rebased = eval.rebase(base, best->pid);
      }
      if (rebased.makespan != best_makespan || rebased.cost != best_cost) {
        fail("rebase onto the batch's best move disagrees with its "
             "evaluation");
      }
      ScheduleCheckpointLog next;
      (void)ftes::list_schedule(app, arch, base, next);
      log = std::move(next);
    }
  }

 private:
  ftes::EvalContext::Outcome probe_move(ftes::EvalContext& eval,
                                        const PolicyAssignment& base,
                                        const ScheduleCheckpointLog& log,
                                        const PolicyAssignment& cand,
                                        const Move& move,
                                        ProbeCounts& counts) {
    const ftes::Application& app = inst_.app;
    const ftes::Architecture& arch = inst_.arch;
    const int k = problem_.options.fault_model.k;
    ftes::EvalContext::Outcome out;
    {
      ScopedSpan span(tracer_, "opt.evaluate_move", index_);
      out = eval.evaluate_move(move.pid, move.plan);
    }
    Time fault_free = 0;
    {
      ScopedSpan span(tracer_, "opt.fault_free_makespan", index_);
      fault_free = eval.fault_free_makespan(move.pid, move.plan);
    }
    ListSchedule full;
    {
      ScopedSpan span(tracer_, "sched.list_schedule", index_);
      ScheduleCheckpointLog cand_log;
      full = ftes::list_schedule(app, arch, cand, cand_log);
    }
    ListSchedule resumed;
    ftes::ListScheduleResumeStats rs;
    {
      ScopedSpan span(tracer_, "sched.list_resume", index_);
      resumed = ftes::list_schedule_resume(app, arch, base, log, cand,
                                           move.pid, &rs);
    }
    ftes::WcslDag dag;
    {
      ScopedSpan span(tracer_, "sched.wcsl_dag", index_);
      dag = ftes::build_wcsl_dag(app, arch, cand, k, full);
    }
    const std::vector<int> order = dag.g.topological_order();
    std::vector<std::vector<Time>> rows(
        static_cast<std::size_t>(dag.g.vertex_count()));
    {
      ScopedSpan span(tracer_, "sched.wcsl_dp", index_);
      for (int v : order) {
        (void)ftes::wcsl_dp_row(dag, v, rows, k,
                                rows[static_cast<std::size_t>(v)]);
      }
    }

    // Differential checks against from-scratch computations.
    const ftes::WcslResult fresh =
        ftes::evaluate_wcsl(app, arch, cand, problem_.options.fault_model);
    if (out.makespan != fresh.makespan ||
        out.cost != ftes::assignment_cost(app, arch, cand,
                                          problem_.options.fault_model)) {
      fail("evaluate_move outcome != evaluate_wcsl of the candidate");
    }
    if (fault_free != full.makespan) {
      fail("fault_free_makespan != list_schedule makespan");
    }
    bool same_finish = resumed.makespan == full.makespan;
    for (int p = 0; same_finish && p < app.process_count(); ++p) {
      same_finish = resumed.process_finish(ProcessId{p}) ==
                    full.process_finish(ProcessId{p});
    }
    if (!same_finish) fail("list_schedule_resume != list_schedule");
    if (ftes::wcsl_result_from_rows(app, full, dag, rows, k).makespan !=
        fresh.makespan) {
      fail("WCSL DP over build_wcsl_dag != evaluate_wcsl");
    }

    counts.events += static_cast<double>(full.copies.size() +
                                         full.messages.size());
    counts.resume_events += static_cast<double>(rs.events_total);
    counts.resume_served += static_cast<double>(rs.events_resumed);
    counts.resume_replayed += static_cast<double>(rs.events_replayed);
    counts.heap_pops += static_cast<double>(rs.heap_pops);
    counts.dag_edges += dag.g.edge_count();
    counts.dags += 1;
    return out;
  }

  void fail(const std::string& what) {
    // One line per kind of mismatch is enough to act on.
    if (std::find(errors_.begin(), errors_.end(), what) == errors_.end()) {
      errors_.push_back(what);
    }
  }

  const Workload& workload_;
  const Problem& problem_;
  int index_;
  ftes::Rng rng_;
  Tracer& tracer_;
  std::vector<std::string>& errors_;
  Instance inst_;
};

/// Stream index of the probe's move sampler under a problem's seed.
constexpr std::uint64_t kProbeStream = 0x9E0BE;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// p-quantile of a span's durations, in microseconds.
double us(const Tracer& tracer, const char* name, double q) {
  return quantile(tracer.durations(name), q) * 1e6;
}

double total_s(const Tracer& tracer, const char* name) {
  return sum(tracer.durations(name));
}

}  // namespace

TracedRun run_traced(const Workload& workload, double untraced_solve_s,
                     const std::vector<std::string>& untraced_digests,
                     Tracer& tracer) {
  TracedRun run;
  const std::size_t n = workload.problems.size();
  run.errors.resize(n);
  StageCounts stages;
  std::vector<TracedProblem> traced;
  std::vector<std::optional<PolicyAssignment>> designs(n);
  traced.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Problem& problem = workload.problems[i];
    traced.emplace_back(workload, problem, static_cast<int>(i),
                        ftes::derive_stream_seed(problem.seed, kProbeStream),
                        tracer, run.errors[i]);
    try {
      ftes::SynthesisResult decomposed = traced[i].run_stages(stages);
      if (digest(decomposed) != untraced_digests[i]) {
        run.errors[i].push_back(
            "decomposed stages ended at another design than Pipeline::run");
      }
      designs[i] = std::move(decomposed.assignment);
    } catch (const std::exception& e) {
      run.errors[i].push_back(std::string("decomposed stages threw: ") +
                              e.what());
    }
  }
  // A second untraced pass brackets the traced one in time, so a drift in
  // machine speed does not read as tracing overhead.
  const PassResult second = run_pass(
      workload.problems,
      [&](std::size_t i, const Instance&, const Solved& s) {
        if (digest(s.result) != untraced_digests[i]) {
          run.errors[i].push_back("repeat pass changed the design");
        }
      });
  const double untraced_s = 0.5 * (untraced_solve_s + second.solve_s);
  ProbeCounts probe;
  for (std::size_t i = 0; i < n; ++i) {
    if (!designs[i]) continue;
    try {
      traced[i].probe(*designs[i], probe);
    } catch (const std::exception& e) {
      run.errors[i].push_back(std::string("layer probe threw: ") + e.what());
    }
  }

  const double stages_s = total_s(tracer, "core.policy_assignment") +
                          total_s(tracer, "core.checkpoint_refine") +
                          total_s(tracer, "core.schedule_tables");
  const double cond_s = total_s(tracer, "sched.cond_schedule");
  const ftes::EvalStats& ev = stages.eval;
  run.metrics = {
      {"gen.generate_ms", total_s(tracer, "gen.generate") * 1e3, "ms"},
      {"core.context_ms", total_s(tracer, "core.context") * 1e3, "ms"},
      {"core.policy_assignment_s", total_s(tracer, "core.policy_assignment"),
       "s"},
      {"core.checkpoint_refine_s", total_s(tracer, "core.checkpoint_refine"),
       "s"},
      {"core.schedule_tables_s", total_s(tracer, "core.schedule_tables"),
       "s"},
      {"opt.evaluate_move_us_p50", us(tracer, "opt.evaluate_move", 0.5),
       "us"},
      {"opt.evaluate_move_us_p99", us(tracer, "opt.evaluate_move", 0.99),
       "us"},
      {"opt.fault_free_makespan_us_p50",
       us(tracer, "opt.fault_free_makespan", 0.5), "us"},
      {"opt.rebase_us_p50", us(tracer, "opt.rebase", 0.5), "us"},
      {"opt.rebase_us_p99", us(tracer, "opt.rebase", 0.99), "us"},
      {"opt.dp_reuse_frac", ev.dp_reuse_fraction(), "ratio"},
      {"opt.sched_resume_frac", ev.ls_resume_fraction(), "ratio"},
      {"opt.rebase_cache_hit_frac",
       ratio(static_cast<double>(ev.rebase_cache_hits),
             static_cast<double>(ev.rebases)),
       "ratio"},
      {"opt.evals", static_cast<double>(ev.evaluations), "count"},
      {"sched.list_schedule_us_p50", us(tracer, "sched.list_schedule", 0.5),
       "us"},
      {"sched.list_schedule_ns_per_event",
       ratio(total_s(tracer, "sched.list_schedule") * 1e9, probe.events),
       "ns"},
      {"sched.list_resume_us_p50", us(tracer, "sched.list_resume", 0.5),
       "us"},
      {"sched.list_resume_events_frac",
       ratio(probe.resume_served, probe.resume_events), "ratio"},
      {"sched.heap_pops_per_event",
       ratio(probe.heap_pops, probe.resume_replayed), "count"},
      {"sched.wcsl_dag_us_p50", us(tracer, "sched.wcsl_dag", 0.5), "us"},
      {"sched.wcsl_dag_edges", ratio(probe.dag_edges, probe.dags), "count"},
      {"sched.wcsl_dp_us_p50", us(tracer, "sched.wcsl_dp", 0.5), "us"},
      {"sched.cond_schedule_ms", cond_s * 1e3, "ms"},
      {"sched.cond_scenarios_per_s", ratio(stages.scenarios, cond_s), "1/s"},
      {"sched.table_entries", stages.table_entries, "count"},
      {"util.snapshot_bytes_per_rebase",
       ratio(static_cast<double>(ev.snapshot_bytes_copied),
             static_cast<double>(ev.rebases)),
       "B"},
      {"util.snapshot_refs_shared",
       static_cast<double>(ev.snapshot_refs_shared), "count"},
      {"trace.overhead_frac", ratio(stages_s, untraced_s) - 1.0,
       "ratio"},
  };
  return run;
}

}  // namespace perfbench

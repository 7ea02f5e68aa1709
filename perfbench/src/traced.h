// The traced run: per-layer time and work.
//
// Re-runs every problem as the pipeline's stage entry points called one by
// one on one shared EvalContext (optimize_policy_and_mapping,
// optimize_checkpoints_global, evaluate_full + conditional_schedule), each
// wrapped in a span, and then probes the evaluation layers -- EvalContext
// move evaluation and rebase, the list scheduler (full build and resume),
// the WCSL DAG and DP -- on a deterministic sampled move stream, again one
// span per call.  Every probed call is checked against a from-scratch
// computation, and the decomposed stage sequence must end at the same
// design as the untraced Pipeline::run.
#pragma once

#include <string>
#include <vector>

#include "synth.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedRun {
  std::vector<Metric> metrics;  ///< the per-layer metrics, in a fixed order
  /// Per problem: differential-check failures of the decomposition and
  /// the probe (empty when every check passed).
  std::vector<std::vector<std::string>> errors;
};

/// `untraced_solve_s` and `untraced_digests` come from a pass over the same
/// problems with tracing off: the digests are the decomposition's
/// reference, and trace.overhead_frac is the traced stage time over the
/// mean solve_s of that pass and of one more untraced pass made after the
/// traced one.
[[nodiscard]] TracedRun run_traced(
    const Workload& workload, double untraced_solve_s,
    const std::vector<std::string>& untraced_digests, Tracer& tracer);

}  // namespace perfbench

// Running a workload's problems through the public synthesis API and
// checking what comes out.
//
// run_pass() is what a user of ftes does: generate the inputs, construct a
// SynthesisContext per problem, run Pipeline::default_pipeline() on it --
// exactly synthesize()'s path -- timing the runs and keeping the checks
// outside them; time_setup() times the set-up on its own.
// check_result() then re-derives each design's worst case from scratch
// through evaluate_wcsl (independent of the incremental EvalContext the
// pipeline used), and on table workloads replays every fault scenario
// against the tables.  Results are also pinned by a digest against a
// reference recorded from a known-good commit (perfbench/reference.txt).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/synthesis.h"
#include "workloads.h"

namespace perfbench {

/// One synthesis of one problem.
struct Solved {
  ftes::SynthesisResult result;
  std::string error;  ///< what the run threw; empty when it returned
  double seconds = 0.0;  ///< wall time of Pipeline::run
};

struct PassResult {
  double solve_s = 0.0;  ///< summed wall time of the Pipeline::run calls
  std::vector<double> seconds;  ///< per problem, aligned with the list
};

/// Called after each synthesis, outside the timed region; the result is
/// dropped afterwards, so at most one design is alive at a time.
using OnSolved = std::function<void(std::size_t index,
                                    const Instance& instance,
                                    const Solved& solved)>;

/// Generates and sets up `problems`, then synthesizes them in order.
[[nodiscard]] PassResult run_pass(const std::vector<Problem>& problems,
                                  const OnSolved& on_solved);

/// Set-up alone (generation + context construction) for `problems`.
[[nodiscard]] double time_setup(const std::vector<Problem>& problems);

/// Hex digest of a result: WCSL, evaluations, schedulability, the full
/// policy assignment and mapping, and the tables' size when built.
[[nodiscard]] std::string digest(const ftes::SynthesisResult& result);

/// Independent checks of one result; empty when it passes.
[[nodiscard]] std::vector<std::string> check_result(const Problem& problem,
                                                    const Instance& instance,
                                                    const Solved& solved);

/// Recorded result digests, keyed by (workload, catalogue, problem id).
class Reference {
 public:
  /// Loads `path` ("workload catalogue problem digest" lines, '#'
  /// comments); false when the file cannot be read.
  bool load(const std::string& path);
  /// The recorded digest, or nullptr when none was recorded.
  [[nodiscard]] const std::string* find(const std::string& workload,
                                        const std::string& catalogue,
                                        const std::string& problem) const;

 private:
  std::map<std::string, std::string> digests_;
};

}  // namespace perfbench

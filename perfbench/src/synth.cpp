#include "synth.h"

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/pipeline.h"
#include "sched/wcsl.h"
#include "sim/executor.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

std::vector<std::unique_ptr<ftes::SynthesisContext>> make_contexts(
    const std::vector<Problem>& problems,
    const std::vector<Instance>& instances) {
  std::vector<std::unique_ptr<ftes::SynthesisContext>> contexts;
  contexts.reserve(problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    contexts.push_back(std::make_unique<ftes::SynthesisContext>(
        instances[i].app, instances[i].arch, problems[i].options));
  }
  return contexts;
}

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

PassResult run_pass(const std::vector<Problem>& problems,
                    const OnSolved& on_solved) {
  PassResult pass;
  std::vector<Instance> instances;
  for (const Problem& p : problems) instances.push_back(generate(p));
  auto contexts = make_contexts(problems, instances);

  for (std::size_t i = 0; i < problems.size(); ++i) {
    Solved s;
    const ftes::Stopwatch watch;
    try {
      ftes::Pipeline pipeline = ftes::Pipeline::default_pipeline();
      s.result = pipeline.run(*contexts[i]);
    } catch (const std::exception& e) {
      s.error = e.what();
    } catch (...) {
      s.error = "non-standard exception";
    }
    s.seconds = watch.seconds();
    pass.solve_s += s.seconds;
    pass.seconds.push_back(s.seconds);
    contexts[i].reset();
    on_solved(i, instances[i], s);
  }
  return pass;
}

double time_setup(const std::vector<Problem>& problems) {
  const ftes::Stopwatch watch;
  std::vector<Instance> instances;
  for (const Problem& p : problems) instances.push_back(generate(p));
  auto contexts = make_contexts(problems, instances);
  return watch.seconds();
}

std::string digest(const ftes::SynthesisResult& result) {
  Fnv f;
  f.add(result.wcsl.makespan);
  f.add(result.evaluations);
  f.add(result.schedulable ? 1 : 0);
  const ftes::PolicyAssignment& pa = result.assignment;
  f.add(pa.process_count());
  for (int i = 0; i < pa.process_count(); ++i) {
    const ftes::ProcessPlan& plan = pa.plan(ftes::ProcessId{i});
    f.add(static_cast<std::int64_t>(plan.kind));
    f.add(plan.copy_count());
    for (const ftes::CopyPlan& c : plan.copies) {
      f.add(c.node.get());
      f.add(c.checkpoints);
      f.add(c.recoveries);
    }
  }
  if (result.schedule) {
    f.add(result.schedule->wcsl);
    f.add(result.schedule->scenario_count);
    f.add(result.schedule->tables.total_entries());
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(f.h));
  return buf;
}

std::vector<std::string> check_result(const Problem& problem,
                                      const Instance& instance,
                                      const Solved& solved) {
  std::vector<std::string> errors;
  if (!solved.error.empty()) {
    errors.push_back("threw: " + solved.error);
    return errors;
  }
  const ftes::SynthesisResult& r = solved.result;
  if (r.cancelled || r.timed_out) errors.push_back("cancelled");
  const ftes::FaultModel& model = problem.options.fault_model;
  try {
    r.assignment.validate(instance.app, model);
  } catch (const std::exception& e) {
    errors.push_back(std::string("invalid assignment: ") + e.what());
    return errors;
  }
  // From scratch, independent of the pipeline's incremental evaluator.
  const ftes::WcslResult fresh = ftes::evaluate_wcsl(
      instance.app, instance.arch, r.assignment, model);
  if (fresh.makespan != r.wcsl.makespan) {
    errors.push_back("WCSL " + std::to_string(r.wcsl.makespan) +
                     " != from-scratch " + std::to_string(fresh.makespan));
  }
  if (fresh.process_finish != r.wcsl.process_finish) {
    errors.push_back("per-process worst-case finish differs from scratch");
  }
  bool schedulable = fresh.meets_deadlines(instance.app);
  if (problem.options.build_schedule_tables) {
    if (!r.schedule) {
      errors.push_back("schedule tables were not built");
    } else {
      schedulable = schedulable ||
                    r.schedule->wcsl <= instance.app.deadline();
      const ftes::ExecutionReport report = ftes::check_all_scenarios(
          instance.app, r.assignment, *r.schedule);
      if (!report.ok || !report.violations.empty() || report.cancelled) {
        errors.push_back(
            "schedule tables: " + std::to_string(report.violations.size()) +
            " scenario violations" +
            (report.violations.empty() ? "" : ", first: " +
                                                  report.violations.front()));
      }
    }
  }
  if (schedulable != r.schedulable) {
    errors.push_back("schedulable flag disagrees with the worst case");
  }
  return errors;
}

bool Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, catalogue, problem, hex;
    if (fields >> workload >> catalogue >> problem >> hex) {
      digests_[workload + " " + catalogue + " " + problem] = hex;
    }
  }
  return true;
}

const std::string* Reference::find(const std::string& workload,
                                   const std::string& catalogue,
                                   const std::string& problem) const {
  const auto it = digests_.find(workload + " " + catalogue + " " + problem);
  return it == digests_.end() ? nullptr : &it->second;
}

}  // namespace perfbench

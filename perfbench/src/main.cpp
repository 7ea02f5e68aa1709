// ftes_perfbench: one benchmark run of one workload.
//
//   ftes_perfbench --workload paper|scale|tables --seed N --seconds S
//                  --trace 0|1 [--catalogue C] [--reference FILE]
//                  [--out FILE] [--spans FILE] [--record FILE]
//
// --trace 0 measures the end-to-end metrics: passes over the workload's
// catalogue (set-up, then one Pipeline::run per problem) repeat until S
// seconds have passed, and the means over passes are reported.  --trace
// 1 makes one untraced pass and then the traced run of traced.h, and
// reports the per-layer metrics.  Both check every design (synth.h) and
// compare its digest with the one --reference holds for it.  The last
// line of standard output is the result object; --out receives the same
// result with per-problem details and build metadata, --spans the trace.
// --record FILE instead solves the catalogue once with one evaluation
// thread and appends its reference digests to FILE.
//
// Exit status: 0 when every check passed, 1 when any failed (the result
// line is still printed), 2 on usage errors.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "json.h"
#include "stats.h"
#include "synth.h"
#include "traced.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t catalogue = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string reference;
  std::string out;
  std::string spans;
  std::string record;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ftes_perfbench: %s\nusage: ftes_perfbench --workload "
               "paper|scale|tables --seed N --seconds S --trace 0|1 "
               "[--catalogue C] [--reference FILE] [--out FILE] "
               "[--spans FILE] [--record FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (flag == "--catalogue") {
      a.catalogue = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--catalogue takes a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a.seconds < 0) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--reference") {
      a.reference = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--record") {
      a.record = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed) usage("--workload and --seed needed");
  return a;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One checked synthesis, as it appears in the result file.
struct Record {
  std::string id;
  std::string digest;
  long long wcsl = 0;
  long long evaluations = 0;
  bool schedulable = false;
  double seconds = 0.0;
  std::string reference = "absent";  ///< match | mismatch | absent
  std::vector<std::string> errors;

  [[nodiscard]] std::string to_json() const {
    return JsonObject()
        .str("id", id)
        .str("digest", digest)
        .integer("wcsl", wcsl)
        .integer("evaluations", evaluations)
        .boolean("schedulable", schedulable)
        .num("seconds", seconds)
        .str("reference", reference)
        .raw("errors", json_array(errors, json_string))
        .done();
  }
};

class Run {
 public:
  Run(Args args, Workload workload)
      : args_(std::move(args)), workload_(std::move(workload)) {
    if (!args_.reference.empty() && !reference_.load(args_.reference)) {
      std::fprintf(stderr, "ftes_perfbench: cannot read reference %s\n",
                   args_.reference.c_str());
    }
  }

  /// Fully checks one design of the first pass and compares its digest
  /// with the reference (or records it).
  void check_first(std::size_t i, const Instance& instance, const Solved& s) {
    const Problem& problem = workload_.problems[i];
    const std::string catalogue = std::to_string(workload_.catalogue);
    Record r;
    r.id = problem.id;
    r.errors = check_result(problem, instance, s);
    r.digest = digest(s.result);
    r.wcsl = s.result.wcsl.makespan;
    r.evaluations = s.result.evaluations;
    r.schedulable = s.result.schedulable;
    r.seconds = s.seconds;
    if (!args_.record.empty()) {
      recorded_ += workload_.name + " " + catalogue + " " + r.id + " " +
                   r.digest + "\n";
    } else if (const std::string* want =
                   reference_.find(workload_.name, catalogue, r.id)) {
      r.reference = *want == r.digest ? "match" : "mismatch";
      if (*want != r.digest) {
        r.errors.push_back("digest " + r.digest + " != reference " + *want);
      }
    } else {
      r.errors.push_back("no reference digest recorded");
    }
    count(r.errors);
    records_.push_back(std::move(r));
  }

  /// A repeat pass must reproduce the first pass's design exactly.
  void check_repeat(std::size_t i, const Solved& s) {
    std::vector<std::string> errors;
    if (!s.error.empty()) errors.push_back("threw: " + s.error);
    if (digest(s.result) != records_[i].digest) {
      errors.push_back("repeat pass changed the design");
    }
    records_[i].errors.insert(records_[i].errors.end(), errors.begin(),
                              errors.end());
    count(errors);
  }

  void count(const std::vector<std::string>& errors) {
    ++attempted_;
    if (!errors.empty()) ++failed_;
  }

  int execute() {
    // Warm-up (thread pool, allocator, caches): one untimed synthesis.
    (void)run_pass({workload_.problems.front()},
                   [](std::size_t, const Instance&, const Solved&) {});
    const ftes::Stopwatch run_watch;
    const PassResult first = run_pass(
        workload_.problems,
        [this](std::size_t i, const Instance& instance, const Solved& s) {
          check_first(i, instance, s);
          sample_setup();
        });
    if (!args_.record.empty()) return write_record();
    if (args_.trace) {
      traced(first);
    } else {
      measure(first, run_watch);
    }
    return finish();
  }

 private:
  void measure(const PassResult& first, const ftes::Stopwatch& run_watch) {
    std::vector<double> solve{first.solve_s};
    // Per problem, its Pipeline::run time in every pass.
    std::vector<std::vector<double>> synth(first.seconds.size());
    const auto add_synth = [&synth](const PassResult& pass) {
      for (std::size_t i = 0; i < synth.size(); ++i) {
        synth[i].push_back(pass.seconds[i]);
      }
    };
    add_synth(first);
    const auto repeat = [this](std::size_t i, const Instance&,
                               const Solved& s) {
      check_repeat(i, s);
      sample_setup();
    };
    while (run_watch.seconds() < args_.seconds) {
      const PassResult pass = run_pass(workload_.problems, repeat);
      solve.push_back(pass.solve_s);
      add_synth(pass);
    }
    while (setup_.size() < kMinSetupSamples) {
      setup_.push_back(time_setup(workload_.problems));
    }
    solve_samples_ = solve;
    synth_samples_ = synth.size() * solve.size();
    // The median problem's typical run: pooling every sample instead would
    // put the median in the gap between two problems' sample clusters.
    // Within a run, the means over passes: the host's speed switches
    // between episodes of tens of seconds, so a run's passes often fall
    // into two clusters, whose median jumps from one to the other with
    // the share of passes in each while the mean moves with it smoothly.
    std::vector<double> per_problem;
    for (const std::vector<double>& times : synth) {
      per_problem.push_back(mean(times));
    }

    double evals = 0.0;
    double wcsl = 0.0;
    for (const Record& r : records_) {
      evals += static_cast<double>(r.evaluations);
      wcsl += static_cast<double>(r.wcsl);
    }
    const double solve_s = mean(solve);
    metrics_ = {
        {"setup_s", median(setup_), "s"},
        {"solve_s", solve_s, "s"},
        {"synth_s_p50", median(per_problem), "s"},
        {"evals_per_s", evals / solve_s, "1/s"},
        {"wcsl_mean", wcsl / static_cast<double>(records_.size()), "ticks"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
  }

  void traced(const PassResult& first) {
    Tracer tracer;
    std::vector<std::string> digests;
    for (const Record& r : records_) digests.push_back(r.digest);
    const TracedRun run =
        run_traced(workload_, first.solve_s, digests, tracer);
    for (std::size_t i = 0; i < run.errors.size(); ++i) {
      records_[i].errors.insert(records_[i].errors.end(),
                                run.errors[i].begin(), run.errors[i].end());
      count(run.errors[i]);
    }
    metrics_ = run.metrics;
    layers_ = tracer.totals();
    if (!args_.spans.empty() && !tracer.write_jsonl(args_.spans)) {
      std::fprintf(stderr, "ftes_perfbench: cannot write %s\n",
                   args_.spans.c_str());
    }
  }

  int write_record() const {
    std::ofstream out(args_.record, std::ios::app);
    out << recorded_;
    if (!out) {
      std::fprintf(stderr, "ftes_perfbench: cannot write %s\n",
                   args_.record.c_str());
      return 2;
    }
    for (const Record& r : records_) report_errors(r);
    return failed_ == 0 ? 0 : 1;
  }

  static void report_errors(const Record& r) {
    for (const std::string& e : r.errors) {
      std::fprintf(stderr, "ftes_perfbench: %s: %s\n", r.id.c_str(),
                   e.c_str());
    }
  }

  int finish() {
    if (!args_.trace) {
      metrics_.push_back({"ok_frac",
                          1.0 - static_cast<double>(failed_) /
                                    static_cast<double>(attempted_),
                          "ratio"});
    }
    JsonObject metrics;
    for (const Metric& m : metrics_) {
      metrics.raw(m.name,
                  JsonObject().num("value", m.value).str("unit", m.unit).done());
    }
    const std::string result = JsonObject()
                                   .boolean("correct", failed_ == 0)
                                   .integer("attempted", attempted_)
                                   .integer("failed", failed_)
                                   .raw("metrics", metrics.done())
                                   .done();
    if (!args_.out.empty()) write_details(result);
    for (const Record& r : records_) report_errors(r);
    std::cout << result << std::endl;
    return failed_ == 0 ? 0 : 1;
  }

  void write_details(const std::string& result) const {
    JsonObject env;
    env.str("compiler", ftes::bench::compiler_id())
        .str("build_type", ftes::bench::build_type_id())
        .integer("nproc", std::thread::hardware_concurrency())
        .integer("threads", workload_.threads);
    JsonObject samples;
    samples.integer("passes", static_cast<long long>(solve_samples_.size()))
        .raw("solve_s", json_array(solve_samples_, json_number))
        .integer("setup", static_cast<long long>(setup_.size()))
        .integer("synth", static_cast<long long>(synth_samples_));
    JsonObject layers;
    for (const auto& [name, t] : layers_) {
      layers.raw(name, JsonObject()
                           .integer("calls", t.calls)
                           .num("total_s", t.total_s)
                           .num("self_s", t.self_s)
                           .done());
    }
    std::ofstream out(args_.out);
    out << JsonObject()
               .str("workload", workload_.name)
               .integer("seed", static_cast<long long>(args_.seed))
               .integer("catalogue", static_cast<long long>(args_.catalogue))
               .integer("trace", args_.trace)
               .num("seconds", args_.seconds)
               .raw("env", env.done())
               .raw("samples", samples.done())
               .raw("problems", json_array(records_, [](const Record& r) {
                 return r.to_json();
               }))
               .raw("layers", layers.done())
               .raw("result", result)
               .done()
        << "\n";
  }

  /// Set-up takes milliseconds, a window in which this host's speed swings
  /// widely, so it is timed alone after every synthesis of a measuring run
  /// -- spread over the whole run, and after every problem's heap alike,
  /// whatever the solve order -- and topped up for runs too short.
  void sample_setup() {
    if (args_.trace || !args_.record.empty()) return;
    for (int k = 0; k < kSetupSamplesPerSynthesis; ++k) {
      setup_.push_back(time_setup(workload_.problems));
    }
  }

  static constexpr int kSetupSamplesPerSynthesis = 2;
  static constexpr std::size_t kMinSetupSamples = 15;

  Args args_;
  Workload workload_;
  Reference reference_;
  std::vector<Record> records_;
  std::vector<Metric> metrics_;
  std::map<std::string, LayerTotals> layers_;
  std::string recorded_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<double> setup_;          ///< stand-alone set-up times
  std::vector<double> solve_samples_;  ///< solve_s of every pass
  std::size_t synth_samples_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Workload workload;
  try {
    workload = make_workload(args.workload, args.catalogue, args.seed,
                             args.record.empty() ? 0 : 1);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  Run run(args, std::move(workload));
  return run.execute();
}

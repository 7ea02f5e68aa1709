#include "workloads.h"

#include <cstdio>
#include <stdexcept>

#include "util/random.h"

namespace perfbench {

namespace {

using ftes::SynthesisOptions;
using ftes::TaskGenParams;

/// Catalogue c's seeds are derived from kCatalogueBase + c.
constexpr std::uint64_t kCatalogueBase = 2008;

void add_problem(Workload& w, const TaskGenParams& params, int k,
                 const SynthesisOptions& options) {
  const int index = static_cast<int>(w.problems.size());
  char id[16];
  std::snprintf(id, sizeof id, "p%02d", index);
  Problem p;
  p.id = id;
  p.params = params;
  p.seed = ftes::derive_stream_seed(kCatalogueBase + w.catalogue,
                                    static_cast<std::uint64_t>(index));
  p.options = options;
  p.options.fault_model.k = k;
  p.options.optimize.seed = p.seed;
  w.problems.push_back(std::move(p));
}

TaskGenParams sized(int processes, int nodes) {
  TaskGenParams params;
  params.process_count = processes;
  params.node_count = nodes;
  return params;
}

// paper: the DATE'08 experimental regime (Section 6; bench_common.h's
// make_instance / bench_options): 20-100 processes, 2-6 nodes, k = 3-7,
// the fig7 tabu budget, analytic WCSL only, serial.
void paper(Workload& w) {
  w.probe_batches = 40;
  SynthesisOptions options;
  options.optimize.iterations = 80;
  options.optimize.neighborhood = 12;
  options.build_schedule_tables = false;
  // 5 sizes x 5 fault bounds; the node count walks a Latin square so every
  // size meets every node count once.
  for (int i = 0; i < 25; ++i) {
    const int size = 20 * (1 + i % 5);
    const int k = 3 + (i / 5) % 5;
    const int nodes = 2 + (i % 5 + i / 5) % 5;
    add_problem(w, sized(size, nodes), k, options);
  }
}

// scale: the gen/taskgen scale family at 250 and 400 processes, k = 2, a
// fixed tabu budget and two evaluation threads -- wide graphs where the
// list scheduler's ready queue and the checkpoint refinement dominate.
void scale(Workload& w) {
  w.threads = 2;
  w.probe_batches = 8;
  SynthesisOptions options;
  options.optimize.iterations = 10;
  options.optimize.neighborhood = 12;
  options.build_schedule_tables = false;
  for (int size : {250, 400}) {
    add_problem(w, ftes::scale_family_params(size, 2), 2, options);
  }
}

// tables: small graphs with quasi-static schedule tables on -- the
// scenario tree (exponential in k) dominates.
void tables(Workload& w) {
  w.probe_batches = 6;
  SynthesisOptions options;
  options.optimize.iterations = 40;
  options.optimize.neighborhood = 12;
  options.build_schedule_tables = true;
  // 4 sizes x 2 node counts x 2 fault bounds.
  for (int i = 0; i < 16; ++i) {
    const int size = 12 + 4 * (i % 4);
    const int nodes = 2 + (i / 4) % 2;
    const int k = 2 + (i / 8) % 2;
    add_problem(w, sized(size, nodes), k, options);
  }
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t catalogue,
                       std::uint64_t seed, int threads) {
  Workload w;
  w.name = name;
  w.catalogue = catalogue;
  if (name == "paper") {
    paper(w);
  } else if (name == "scale") {
    scale(w);
  } else if (name == "tables") {
    tables(w);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (threads > 0) w.threads = threads;
  for (Problem& p : w.problems) p.options.optimize.threads = w.threads;
  ftes::Rng order(seed);
  order.shuffle(w.problems);
  return w;
}

Instance generate(const Problem& problem) {
  ftes::Rng rng(problem.seed);
  Instance inst;
  inst.app = ftes::generate_application(problem.params, rng);
  inst.arch = ftes::generate_architecture(problem.params);
  return inst;
}

}  // namespace perfbench

// The benchmark's workloads: which synthesis problems one run solves.
//
// Each workload is a fixed *catalogue* of problems drawn by gen/taskgen
// from a catalogue seed (problem i of catalogue c is generated, and its
// tabu search seeded, from derive_stream_seed(c, i)).  The problem shapes
// -- process count, node count, k -- are a fixed grid per workload.
//
// The run's --seed permutes the order in which the catalogue is solved;
// it does not redraw the problems.  Redrawing them was measured to move a
// run's total work by 14-43% (IQR over five seeds): the tabu search's
// choice of replication vs checkpointing changes the copy count, and with
// it the cost of every later evaluation, by several times -- so the
// seed-to-seed spread would have measured the draw, not the code.  The
// catalogue is therefore fixed, which also lets every problem's result be
// pinned against a recorded reference digest on every run.  Catalogue 1 is
// held out for checking a performance claim on inputs it was not tuned
// on.  See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "core/synthesis.h"
#include "gen/taskgen.h"

namespace perfbench {

struct Problem {
  std::string id;  ///< "p07": catalogue index, stable across seeds
  ftes::TaskGenParams params;
  std::uint64_t seed = 0;  ///< generator and optimizer seed
  ftes::SynthesisOptions options;
};

struct Instance {
  ftes::Application app;
  ftes::Architecture arch;
};

struct Workload {
  std::string name;
  std::uint64_t catalogue = 0;
  int threads = 1;        ///< evaluation threads (OptimizeOptions::threads)
  int probe_batches = 0;  ///< neighborhood-sized move batches per problem
  int probe_neighborhood = 12;
  std::vector<Problem> problems;  ///< the catalogue, in solve order
};

/// Workload `name` over catalogue `catalogue`, solved in the order `seed`
/// draws; throws std::invalid_argument for an unknown name.  `threads` > 0
/// overrides the workload's evaluation threads (serial references).
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t catalogue,
                                     std::uint64_t seed, int threads = 0);

/// generate_application + generate_architecture for one problem.
[[nodiscard]] Instance generate(const Problem& problem);

}  // namespace perfbench

#include "opt/search_engine.h"

#include <utility>

#include "util/thread_pool.h"

namespace ftes {

SearchResult neighborhood_search(SearchProblem& problem,
                                 PolicyAssignment initial,
                                 const SearchOptions& options) {
  TabuList tabu(options.tenure);
  const int threads = resolve_threads(options.threads);
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();

  PolicyAssignment current = std::move(initial);
  Time current_cost = problem.commit(current);
  // With require_improvement the incumbent is monotone, so `current` IS the
  // best and the per-improvement assignment copy is skipped.
  PolicyAssignment best;
  if (!options.require_improvement) best = current;
  Time best_cost = current_cost;

  SearchStats stats;
  stats.evaluations = 1;

  std::vector<Move> moves;
  std::vector<Time> costs;
  bool accepted_last = false;

  for (int iter = 0;
       options.max_iterations < 0 || iter < options.max_iterations; ++iter) {
    if (options.cancel && options.cancel->poll()) {
      stats.cancelled = true;
      break;
    }

    // --- phase 1: sample the neighborhood (serial, generator owns RNG) ---
    moves.clear();
    if (!problem.neighborhood(iter, current, accepted_last, moves)) break;
    ++stats.iterations;
    accepted_last = false;
    stats.sampled_moves += static_cast<long long>(moves.size());
    if (moves.empty()) continue;

    // --- phase 2: evaluate all sampled moves (parallel, pure) ------------
    costs.assign(moves.size(), kTimeInfinity);
    parallel_for(pool, moves.size(), threads, [&](std::size_t i) {
      // Chunk-granular cancellation point: an armed deadline fires within
      // one candidate evaluation instead of one full neighborhood.
      if (options.cancel && options.cancel->poll()) return;
      costs[i] = problem.evaluate(moves[i]);
    });
    // A cancellation observed mid-neighborhood leaves gaps in `costs`;
    // selecting from a partially evaluated sample would be timing-
    // dependent, so the iteration is abandoned wholesale.
    if (options.cancel && options.cancel->cancelled()) {
      stats.cancelled = true;
      break;
    }
    stats.evaluations += static_cast<int>(moves.size());

    // --- phase 3: pick the admissible move (serial, in sample order) -----
    Time threshold = options.require_improvement ? current_cost : kTimeInfinity;
    const Move* selected = nullptr;
    for (std::size_t i = 0; i < moves.size(); ++i) {
      if (options.tenure > 0 &&
          tabu.is_tabu(moves[i].key, iter, costs[i], best_cost)) {
        ++stats.tabu_rejected;  // recent, and aspiration not met
        continue;
      }
      if (costs[i] < threshold) {
        threshold = costs[i];
        selected = &moves[i];
      }
    }
    if (!selected) continue;  // no admissible move

    // --- phase 4: accept -------------------------------------------------
    current.plan(selected->pid) = selected->plan;
    problem.commit(current);
    current_cost = threshold;
    ++stats.accepted_moves;
    // A selected move that is still tabu-recent got past the filter only
    // by beating the global best: the aspiration criterion fired.
    if (options.tenure > 0 && tabu.is_tabu(selected->key, iter)) {
      ++stats.aspiration_accepted;
    }
    accepted_last = true;
    if (options.tenure > 0) tabu.make_tabu(selected->key, iter);
    if (current_cost < best_cost) {
      best_cost = current_cost;
      if (!options.require_improvement) best = current;
    }
  }

  SearchResult result;
  result.best = options.require_improvement ? std::move(current)
                                            : std::move(best);
  result.best_cost = best_cost;
  result.stats = stats;
  return result;
}

}  // namespace ftes

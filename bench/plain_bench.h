// Micro-benchmark harness selector: uses Google Benchmark when the build
// found it (FTES_HAVE_GOOGLE_BENCHMARK), otherwise provides a small
// plain-chrono stand-in for the subset of its API micro_benchmarks.cpp
// uses (State iteration with `for (auto _ : state)`, state.range(i),
// DoNotOptimize, BENCHMARK(fn)->Arg/Args chains, BENCHMARK_MAIN).  The
// fallback keeps perf visibility on machines without the library: numbers
// are comparable run-to-run on one machine, not across harnesses.
#pragma once

#if defined(FTES_HAVE_GOOGLE_BENCHMARK)

#include <benchmark/benchmark.h>

#else

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace benchmark {

class State {
 public:
  State(std::vector<std::int64_t> args, std::int64_t max_iterations)
      : args_(std::move(args)), max_iterations_(max_iterations) {}

  [[nodiscard]] std::int64_t range(std::size_t i = 0) const {
    return args_.at(i);
  }
  [[nodiscard]] std::int64_t iterations() const { return max_iterations_; }
  /// Wall-clock of the timed loop (valid after the loop completed).
  [[nodiscard]] double seconds() const { return elapsed_; }

  /// Loop variable of `for (auto _ : state)`; the user-declared destructor
  /// keeps -Wunused-variable quiet about the intentionally unused binding.
  struct IterationMarker {
    ~IterationMarker() {}
  };
  struct Iterator {
    State* state;
    bool operator!=(const Iterator&) { return state->keep_running(); }
    void operator++() {}
    IterationMarker operator*() const { return IterationMarker{}; }
  };
  Iterator begin() {
    remaining_ = max_iterations_;
    started_ = Clock::now();
    return Iterator{this};
  }
  Iterator end() { return Iterator{this}; }

 private:
  using Clock = std::chrono::steady_clock;

  bool keep_running() {
    if (remaining_-- > 0) return true;
    elapsed_ = std::chrono::duration<double>(Clock::now() - started_).count();
    return false;
  }

  std::vector<std::int64_t> args_;
  std::int64_t max_iterations_ = 1;
  std::int64_t remaining_ = 0;
  double elapsed_ = 0.0;
  Clock::time_point started_;
};

template <class T>
inline void DoNotOptimize(const T& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile const void* sink = &value;
  (void)sink;
#endif
}

struct Benchmark {
  std::string name;
  void (*fn)(State&) = nullptr;
  std::vector<std::vector<std::int64_t>> runs;

  Benchmark* Arg(std::int64_t a) {
    runs.push_back({a});
    return this;
  }
  Benchmark* Args(std::vector<std::int64_t> a) {
    runs.push_back(std::move(a));
    return this;
  }
};

inline std::vector<Benchmark*>& registry() {
  static std::vector<Benchmark*> benchmarks;
  return benchmarks;
}

inline Benchmark* RegisterPlainBenchmark(const char* name, void (*fn)(State&)) {
  auto* b = new Benchmark{name, fn, {}};
  registry().push_back(b);
  return b;
}

/// Runs every registered benchmark; `record(label, ns_per_op, iterations)`
/// is additionally invoked per run when provided (the --bench-json hook).
inline void RunAllPlainBenchmarks(
    const std::function<void(const std::string&, double, std::int64_t)>&
        record = {}) {
  std::printf("plain-chrono micro-benchmark fallback "
              "(Google Benchmark not found at configure time)\n");
  std::printf("%-44s %14s %12s\n", "benchmark", "time/op", "iterations");
  for (Benchmark* b : registry()) {
    std::vector<std::vector<std::int64_t>> runs = b->runs;
    if (runs.empty()) runs.push_back({});
    for (const std::vector<std::int64_t>& args : runs) {
      std::string label = b->name;
      for (std::int64_t a : args) label += "/" + std::to_string(a);
      // Grow the iteration count until the timed loop is long enough to
      // damp clock noise.
      std::int64_t iters = 1;
      double secs = 0.0;
      for (;;) {
        State state(args, iters);
        b->fn(state);
        secs = state.seconds();
        if (secs >= 0.2 || iters >= (std::int64_t{1} << 26)) break;
        const std::int64_t by_time =
            secs > 0 ? static_cast<std::int64_t>(
                           static_cast<double>(iters) * 0.25 / secs) + 1
                     : iters * 16;
        iters = std::max(iters * 2, std::min(by_time, iters * 16));
      }
      const double ns = secs / static_cast<double>(iters) * 1e9;
      std::printf("%-44s %11.0f ns %12lld\n", label.c_str(), ns,
                  static_cast<long long>(iters));
      if (record) record(label, ns, iters);
    }
  }
}

}  // namespace benchmark

#define BENCHMARK(fn)                                    \
  static ::benchmark::Benchmark* plain_bench_reg_##fn = \
      ::benchmark::RegisterPlainBenchmark(#fn, fn)

#define BENCHMARK_MAIN()                 \
  int main() {                           \
    ::benchmark::RunAllPlainBenchmarks(); \
    return 0;                            \
  }

#endif  // FTES_HAVE_GOOGLE_BENCHMARK

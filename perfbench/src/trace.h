// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into an ftes layer, recorded from the
// benchmark's own code around the library's public entry points: name,
// start, end, the enclosing span, and the problem it belongs to.  Spans
// stay in memory until the run ends and are then written out as JSON
// lines.  A layer's self time is its spans' durations minus the parts
// their child spans cover (children are strictly nested, so that part is
// the sum of the children's durations).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  int problem = -1;  ///< problem index; spans of one problem share it

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Per-name aggregate of a span set.
struct LayerTotals {
  long long calls = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed durations minus child coverage
};

class Tracer {
 public:
  /// Opens a span nested in the innermost open span; returns its id.
  int begin(const char* name, int problem) {
    Span s;
    s.name = name;
    s.parent = open_;
    s.problem = problem;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (seconds) of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Calls, total and self time per span name.
  [[nodiscard]] std::map<std::string, LayerTotals> totals() const;

  /// Writes one JSON object per span and line; false on an I/O error.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int problem)
      : tracer_(tracer), id_(tracer.begin(name, problem)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

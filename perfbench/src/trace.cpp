#include "trace.h"

#include <fstream>

namespace perfbench {

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_cover[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = out[spans_[i].name];
    ++t.calls;
    t.total_s += spans_[i].seconds();
    t.self_s += spans_[i].seconds() - child_cover[i];
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"problem\": " << s.problem << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

// Minimal JSON emitter for the benchmark's result lines and files.
#pragma once

#include <charconv>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "util/json_io.h"

namespace perfbench {

/// Shortest round-trip rendering of a finite double (every digit the value
/// carries, nothing more); non-finite values become null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(const std::string& s) {
  std::ostringstream out;
  ftes::json_escape(out, s);
  return out.str();
}

/// JSON array of `items`, each rendered to JSON by `render`.
template <class T, class Render>
std::string json_array(const std::vector<T>& items, Render render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + render(items[i]);
  }
  return out + "]";
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "" : ", ") << json_string(key) << ": " << json;
    first_ = false;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  [[nodiscard]] std::string done() const { return "{" + out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

}  // namespace perfbench

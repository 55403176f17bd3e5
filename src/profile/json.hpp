// Minimal JSON DOM for reading bench dumps back in.
//
// The perf gate and A/B diff must parse the JSON that `bench_common` and
// the profiler write, and the toolchain ships no JSON library — so this is
// a small, strict, recursive-descent parser producing an immutable DOM.
// It supports exactly what the bench schema needs (objects, arrays,
// numbers, strings with \uXXXX escapes, true/false/null) and throws
// pvr::Error with a byte offset on malformed input. Object keys keep
// insertion order so round-trip diffs stay deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pvr::profile {

class JsonValue;
using JsonPtr = std::shared_ptr<const JsonValue>;

/// One immutable JSON node.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Typed accessors; throw pvr::Error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonPtr>& as_array() const;
  const std::vector<std::pair<std::string, JsonPtr>>& as_object() const;

  /// Object member lookup: null pointer when absent, throws when not an
  /// object. `at` throws on absence too, naming the key.
  JsonPtr find(const std::string& key) const;
  JsonPtr at(const std::string& key) const;

  /// Convenience: member as number/string, throwing with the key named.
  double number_at(const std::string& key) const;
  const std::string& string_at(const std::string& key) const;

  // Construction (used by the parser; public so tests can build values).
  static JsonPtr make_null();
  static JsonPtr make_bool(bool b);
  static JsonPtr make_number(double v);
  static JsonPtr make_string(std::string s);
  static JsonPtr make_array(std::vector<JsonPtr> items);
  static JsonPtr make_object(
      std::vector<std::pair<std::string, JsonPtr>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonPtr> array_;
  std::vector<std::pair<std::string, JsonPtr>> object_;
};

/// Deepest nesting of arrays and objects parse_json accepts. Bench dumps
/// nest at most 4 deep; the bound keeps hostile input from exhausting the
/// parser's recursion stack.
constexpr int kMaxJsonDepth = 64;

/// Parses a complete JSON document; trailing non-whitespace is an error.
/// Throws pvr::Error("json parse error at byte N: ...") on malformed input,
/// including nesting deeper than kMaxJsonDepth.
JsonPtr parse_json(const std::string& text);

/// Reads a whole file and parses it; errors name the path.
JsonPtr load_json_file(const std::string& path);

}  // namespace pvr::profile

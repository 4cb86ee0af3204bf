// The repository's one JSON value type: it parses the serve protocol and
// Chrome traces, and renders every report, trace, response and bench file.
//
// Rendering is *byte-deterministic*: serve_bench's cross-thread-count gate
// diffs raw response bytes, and Chrome traces must not change bytes when
// their writer is refactored. So objects keep members in insertion order
// (writers build them field by field), numbers follow one fixed rule
// (integers within 2^53 exactly, every other finite double as %.17g,
// which is what an ostream at max_digits10 prints and round-trips bit for
// bit; non-finite values as null), and strings escape `"`, `\` and
// control characters only. The parser is a strict recursive-descent
// implementation with a depth limit, so malformed or adversarial input
// throws std::invalid_argument instead of crashing its caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace gf::util {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Members = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(bool b) : value_(b) {}
  Json(double n) : value_(n) {}
  Json(int n) : value_(static_cast<double>(n)) {}
  Json(std::int64_t n) : value_(static_cast<double>(n)) {}
  Json(std::size_t n) : value_(static_cast<double>(n)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(const char* s) : value_(std::string(s)) {}

  static Json array() { Json j; j.value_ = Array(); return j; }
  static Json object() { Json j; j.value_ = Members(); return j; }
  /// An object holding `members` in list order, as if set() one by one.
  static Json object(std::initializer_list<std::pair<std::string, Json>> members);

  /// Parses one JSON document (must consume the whole input, trailing
  /// whitespace aside). Throws std::invalid_argument with a byte offset
  /// on malformed input; nesting beyond 64 levels is rejected. An object
  /// keeps repeated keys in input order (so parsing stays linear), and
  /// find() and set() act on the last of them.
  static Json parse(const std::string& text);

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Checked accessors; throw std::invalid_argument on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& items() const;
  const Members& members() const;

  /// Object lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  /// Convenience lookups with defaults (absent or wrong-kind -> fallback).
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;

  /// Object building: appends (insertion order is the render order).
  Json& set(const std::string& key, Json value);
  /// Array building.
  Json& push_back(Json value);

  /// Compact deterministic rendering (no whitespace, one line).
  std::string dump() const;

 private:
  class Parser;  // json.cpp

  /// Alternatives in Kind order. One variant keeps a value at 40 bytes, so
  /// a parsed or built trace of thousands of events stays small.
  std::variant<std::nullptr_t, bool, double, std::string, Array, Members> value_;
};

}  // namespace gf::util

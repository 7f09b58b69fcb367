// Minimal deterministic JSON: the value type behind the report subsystem
// (exp/report.h).
//
// Design constraints, in order:
//   1. Canonical output. dump() is a pure function of the value — objects
//     keep insertion order, doubles print via std::to_chars (shortest
//     round-trip form) — so two equal values always serialize to the same
//     bytes. The report determinism contract (byte-identical files at any
//     thread count, golden diffs) rests on this.
//   2. Exact round-trip. parse(dump(v)) == v, including every double bit
//     pattern (from_chars inverts to_chars exactly), so fingerprints
//     recomputed from a parsed report match the values computed before
//     serialization.
//   3. No dependencies. A few hundred lines, no allocator tricks; report
//     files are kilobytes, not gigabytes.
//
// Not supported (reports never need them): non-finite numbers (dump throws
// ConfigError), duplicate object keys (parse keeps both, lookup finds the
// first), \u escapes beyond the BMP are passed through as raw bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fba::json {

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  using Array = std::vector<Value>;
  /// Insertion-ordered object: order is part of the canonical form.
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(double d) : type_(Type::kNumber), num_(d) {}
  Value(int i) : type_(Type::kNumber), num_(i) {}
  /// Rejects (throws ConfigError) integers beyond the double-exact 2^53
  /// range; serialize those as strings (seeds, fingerprints).
  Value(std::uint64_t u);
  Value(const char* s) : type_(Type::kString), str_(s) {}
  Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Typed accessors; throw ConfigError on a type mismatch (reports treat
  /// malformed files as configuration errors, not crashes).
  bool as_bool() const;
  double as_double() const;
  std::uint64_t as_uint64() const;  ///< rejects negatives and non-integers.
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;

  /// Object field lookup; throws ConfigError when absent or not an object.
  const Value& at(std::string_view key) const;
  /// Null-tolerant lookup: nullptr when absent (still throws on non-object).
  const Value* find(std::string_view key) const;
  /// Appends (no duplicate-key check; canonical writers never duplicate).
  void set(std::string key, Value v);
  /// Array append.
  void push_back(Value v);

  bool operator==(const Value& other) const;

  /// Canonical serialization: 2-space indentation, '\n' line ends, object
  /// insertion order, shortest-round-trip doubles (integers up to 2^53 in
  /// integer form). Throws ConfigError on NaN/infinity.
  std::string dump() const;

  /// Strict parser (UTF-8 in, trailing garbage and non-finite number
  /// literals rejected). Throws ConfigError with a byte offset on
  /// malformed input.
  static Value parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array array_;
  Object object_;
};

/// Reads a bool, an unsigned integer or a double from `v` into `out` with
/// the matching typed accessor.
template <class T>
void read_into(const Value& v, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = v.as_bool();
  } else if constexpr (std::is_floating_point_v<T>) {
    out = v.as_double();
  } else {
    out = static_cast<T>(v.as_uint64());
  }
}

/// 64-bit integers beyond the double-exact range ride as strings: 16
/// lower-case hex digits (fingerprints) or decimal (seeds). parse_u64
/// inverts both (radix 16 or 10); it throws ConfigError unless all of
/// `text` is one integer.
std::string hex_u64(std::uint64_t v);
std::uint64_t parse_u64(const std::string& text, int radix);

/// Reads or writes a whole document file; throw ConfigError naming the
/// path on failure.
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& content);

/// The canonical number form on its own (what dump() emits for a number
/// value): shortest round-trip via std::to_chars, integer form within the
/// double-exact range. Shared by the CSV/gnuplot writers so every artifact
/// of one run agrees byte-for-byte. Throws ConfigError on NaN/infinity.
std::string number_to_string(double v);

}  // namespace fba::json

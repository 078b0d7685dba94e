// Minimal JSON value, parser and serializer.
//
// This exists to encode/decode the PAWS (RFC 7545) message subset used by
// the TVWS spectrum-database client (`cellfi/tvws`). It supports the full
// JSON data model except that numbers are always stored as double.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace cellfi::json {

class Value;

using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, number, string, array or object.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(std::int64_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_number() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_array() const { return std::holds_alternative<Array>(data_); }
  bool is_object() const { return std::holds_alternative<Object>(data_); }

  bool as_bool() const { return std::get<bool>(data_); }
  double as_number() const { return std::get<double>(data_); }
  /// The number as a T, or nullopt unless this is a number holding an
  /// integral value inside T's range: a fractional, non-finite or
  /// out-of-range value (`1.5`, `1e300`, `-1` for unsigned T) is rejected,
  /// never truncated or wrapped.
  template <typename T>
  std::optional<T> as_integer() const {
    static_assert(std::is_integral_v<T>);
    if (!is_number()) return std::nullopt;
    const double d = std::get<double>(data_);
    // 2^digits is the first integer past T's maximum, exact as a double.
    const double end = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!(d >= static_cast<double>(std::numeric_limits<T>::min()) && d < end) ||
        d != std::trunc(d)) {
      return std::nullopt;
    }
    return static_cast<T>(d);
  }
  /// A string of plain decimal digits naming a uint64 (how 64-bit seeds
  /// are serialized: a double cannot hold every one), or nullopt — no
  /// sign, whitespace, trailing text or overflow.
  std::optional<std::uint64_t> as_decimal_u64() const;
  const std::string& as_string() const { return std::get<std::string>(data_); }
  const Array& as_array() const { return std::get<Array>(data_); }
  Array& as_array() { return std::get<Array>(data_); }
  const Object& as_object() const { return std::get<Object>(data_); }
  Object& as_object() { return std::get<Object>(data_); }

  /// Object member access; inserts null for missing keys (object only).
  Value& operator[](const std::string& key);

  /// Lookup without insertion; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Serialize to a compact JSON string.
  std::string Dump() const;

  friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parse a JSON document. Returns nullopt on malformed input, including
/// numbers outside the RFC 8259 grammar (`+1`, `01`, `1.`, `1e`), numbers
/// that overflow a double, and arrays/objects nested deeper than 256.
std::optional<Value> Parse(const std::string& text);

}  // namespace cellfi::json

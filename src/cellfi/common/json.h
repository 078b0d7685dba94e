// Minimal JSON value, parser and serializer.
//
// This exists to encode/decode the PAWS (RFC 7545) message subset used by
// the TVWS spectrum-database client (`cellfi/tvws`). It supports the full
// JSON data model except that numbers are always stored as double.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
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
  std::int64_t as_int() const { return static_cast<std::int64_t>(std::get<double>(data_)); }
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

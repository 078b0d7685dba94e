#include "cellfi/common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <system_error>

namespace cellfi::json {

Value& Value::operator[](const std::string& key) {
  if (!is_object()) data_ = Object{};
  return as_object()[key];
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = as_object().find(key);
  return it == as_object().end() ? nullptr : &it->second;
}

std::optional<std::uint64_t> Value::as_decimal_u64() const {
  if (!is_string()) return std::nullopt;
  const std::string& text = as_string();
  const char* end = text.data() + text.size();
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

namespace {

void DumpString(const std::string& s, std::ostringstream& out) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void DumpNumber(double d, std::ostringstream& out) {
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    out << static_cast<std::int64_t>(d);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out << buf;
  }
}

void DumpValue(const Value& v, std::ostringstream& out) {
  if (v.is_null()) {
    out << "null";
  } else if (v.is_bool()) {
    out << (v.as_bool() ? "true" : "false");
  } else if (v.is_number()) {
    DumpNumber(v.as_number(), out);
  } else if (v.is_string()) {
    DumpString(v.as_string(), out);
  } else if (v.is_array()) {
    out << '[';
    bool first = true;
    for (const auto& e : v.as_array()) {
      if (!first) out << ',';
      first = false;
      DumpValue(e, out);
    }
    out << ']';
  } else {
    out << '{';
    bool first = true;
    for (const auto& [k, e] : v.as_object()) {
      if (!first) out << ',';
      first = false;
      DumpString(k, out);
      out << ':';
      DumpValue(e, out);
    }
    out << '}';
  }
}

// Recursive-descent parser. Nesting is capped at kMaxDepth arrays/objects
// so hostile input (a PAWS response, a fault plan, a sweep checkpoint)
// cannot overflow the stack; no document the simulator writes comes near.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<Value> Run() {
    auto v = ParseValue();
    if (!v) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::optional<Value> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) return std::nullopt;
      ++depth_;
      auto v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      auto s = ParseString();
      if (!s) return std::nullopt;
      return Value(*s);
    }
    if (ConsumeLiteral("true")) return Value(true);
    if (ConsumeLiteral("false")) return Value(false);
    if (ConsumeLiteral("null")) return Value(nullptr);
    return ParseNumber();
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += h - '0';
              else if (h >= 'a' && h <= 'f') code += h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code += h - 'A' + 10;
              else return std::nullopt;
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  bool IsDigitAt(std::size_t i) const {
    return i < text_.size() && std::isdigit(static_cast<unsigned char>(text_[i]));
  }

  void SkipDigits() {
    while (IsDigitAt(pos_)) ++pos_;
  }

  // RFC 8259 number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  // Validated here, then converted (correctly rounded) by std::from_chars.
  std::optional<Value> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!IsDigitAt(pos_)) return std::nullopt;
    if (text_[pos_++] != '0') SkipDigits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      if (!IsDigitAt(++pos_)) return std::nullopt;
      SkipDigits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!IsDigitAt(pos_)) return std::nullopt;
      SkipDigits();
    }
    double d = 0.0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, d).ec != std::errc()) {
      return std::nullopt;  // out of double range
    }
    return Value(d);
  }

  std::optional<Value> ParseArray() {
    if (!Consume('[')) return std::nullopt;
    Array arr;
    SkipWs();
    if (Consume(']')) return Value(std::move(arr));
    while (true) {
      auto v = ParseValue();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      if (Consume(']')) return Value(std::move(arr));
      if (!Consume(',')) return std::nullopt;
    }
  }

  std::optional<Value> ParseObject() {
    if (!Consume('{')) return std::nullopt;
    Object obj;
    SkipWs();
    if (Consume('}')) return Value(std::move(obj));
    while (true) {
      SkipWs();
      auto key = ParseString();
      if (!key) return std::nullopt;
      if (!Consume(':')) return std::nullopt;
      auto v = ParseValue();
      if (!v) return std::nullopt;
      obj[*key] = std::move(*v);
      if (Consume('}')) return Value(std::move(obj));
      if (!Consume(',')) return std::nullopt;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string Value::Dump() const {
  std::ostringstream out;
  DumpValue(*this, out);
  return out.str();
}

std::optional<Value> Parse(const std::string& text) { return Parser(text).Run(); }

}  // namespace cellfi::json

#include "support/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/types.h"

namespace fba::json {

namespace {

[[noreturn]] void fail(const std::string& what) { throw ConfigError(what); }

const char* type_name(Type t) {
  switch (t) {
    case Type::kNull: return "null";
    case Type::kBool: return "bool";
    case Type::kNumber: return "number";
    case Type::kString: return "string";
    case Type::kArray: return "array";
    case Type::kObject: return "object";
  }
  return "?";
}

void require_type(Type actual, Type wanted) {
  if (actual != wanted) {
    fail(std::string("json: expected ") + type_name(wanted) + ", got " +
         type_name(actual));
  }
}

/// Shortest round-trip number form. Integers within the double-exact range
/// print without a fractional part so counts look like counts.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    fail("json: non-finite numbers are not representable");
  }
  constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && std::fabs(v) < kExactIntLimit) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<long long>(v));
    out.append(buf, r.ptr);
    return;
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail_at(const std::string& what) {
    fail("json parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail_at("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // Recursion bound so corrupt/adversarial input throws ConfigError
  // instead of overflowing the stack. Reports nest ~6 levels deep.
  static constexpr int kMaxDepth = 200;
  struct DepthGuard {
    Parser& parser;
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxDepth) {
        parser.fail_at("nesting deeper than 200 levels");
      }
    }
    ~DepthGuard() { --parser.depth_; }
  };

  Value parse_value() {
    const DepthGuard guard(*this);
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail_at("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail_at("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail_at("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value::Object fields;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(fields));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      fields.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(fields));
    }
  }

  Value parse_array() {
    expect('[');
    Value::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail_at("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail_at("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail_at("truncated \\u escape");
          unsigned code = 0;
          const auto r = std::from_chars(text_.data() + pos_,
                                         text_.data() + pos_ + 4, code, 16);
          if (r.ptr != text_.data() + pos_ + 4) fail_at("bad \\u escape");
          pos_ += 4;
          // Canonical writers only emit \u00xx control escapes; encode the
          // general case as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail_at("unknown escape");
      }
    }
  }

  Value parse_number() {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double v = 0;
    const auto r = std::from_chars(begin, end, v);
    if (r.ec != std::errc() || r.ptr == begin) fail_at("malformed number");
    // from_chars accepts "inf"/"nan" literals; JSON has no such numbers.
    if (!std::isfinite(v)) fail_at("non-finite number literal");
    pos_ += static_cast<std::size_t>(r.ptr - begin);
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value::Value(std::uint64_t u) : type_(Type::kNumber) {
  num_ = static_cast<double>(u);
  if (static_cast<std::uint64_t>(num_) != u) {
    fail("json: integer " + std::to_string(u) +
         " exceeds double-exact range; serialize it as a string");
  }
}

bool Value::as_bool() const {
  require_type(type_, Type::kBool);
  return bool_;
}

double Value::as_double() const {
  require_type(type_, Type::kNumber);
  return num_;
}

std::uint64_t Value::as_uint64() const {
  require_type(type_, Type::kNumber);
  // Mirror the writer's 2^53 double-exact limit; beyond it the cast would
  // be undefined behavior (and the value could not have been written by
  // dump() anyway).
  constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53
  if (num_ < 0 || num_ != std::floor(num_) || num_ > kExactIntLimit) {
    fail("json: expected a non-negative integer within the double-exact"
         " range");
  }
  return static_cast<std::uint64_t>(num_);
}

const std::string& Value::as_string() const {
  require_type(type_, Type::kString);
  return str_;
}

const Value::Array& Value::as_array() const {
  require_type(type_, Type::kArray);
  return array_;
}

Value::Array& Value::as_array() {
  require_type(type_, Type::kArray);
  return array_;
}

const Value::Object& Value::as_object() const {
  require_type(type_, Type::kObject);
  return object_;
}

const Value* Value::find(std::string_view key) const {
  require_type(type_, Type::kObject);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) fail("json: missing field \"" + std::string(key) + "\"");
  return *v;
}

void Value::set(std::string key, Value v) {
  require_type(type_, Type::kObject);
  object_.emplace_back(std::move(key), std::move(v));
}

void Value::push_back(Value v) {
  require_type(type_, Type::kArray);
  array_.push_back(std::move(v));
}

bool Value::operator==(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return num_ == other.num_;
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

void Value::dump_to(std::string& out, int indent) const {
  const auto newline = [&out](int depth) {
    out += '\n';
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, num_); break;
    case Type::kString: append_quoted(out, str_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline(indent + 1);
        array_[i].dump_to(out, indent + 1);
      }
      newline(indent);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline(indent + 1);
        append_quoted(out, object_[i].first);
        out += ": ";
        object_[i].second.dump_to(out, indent + 1);
      }
      newline(indent);
      out += '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

Value Value::parse(std::string_view text) { return Parser(text).run(); }

std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_u64(const std::string& text, int radix) {
  std::uint64_t out = 0;
  const auto r =
      std::from_chars(text.data(), text.data() + text.size(), out, radix);
  if (r.ec != std::errc() || r.ptr != text.data() + text.size()) {
    fail("json: malformed integer field \"" + text + "\"");
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) fail("json: cannot read \"" + path + "\"");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) fail("json: cannot open \"" + path + "\" for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out.good()) fail("json: short write to \"" + path + "\"");
}

std::string number_to_string(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

}  // namespace fba::json

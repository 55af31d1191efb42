#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace cnash::util {

namespace {

constexpr int kMaxDepth = 64;

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Round-trip precision without noise: %g when that parses back to the same
  // double, else %.17g, so integers and short decimals stay readable in
  // golden files and on the wire. to_chars with a precision prints exactly
  // what printf's %.<precision>g does, so the bytes are printf's.
  char buf[32];
  auto printed =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 6);
  double back = 0.0;
  const auto parsed = std::from_chars(buf, printed.ptr, back);
  if (parsed.ec != std::errc() || back != v)
    printed = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, 17);
  out.append(buf, printed.ptr);
}

/// Recursive-descent parser over [text, text+size). Throws JsonError.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError(pos_, message);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(const char* literal) {
    const std::size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail("nesting depth limit exceeded");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json::string(string());
      case 't':
        if (consume("true")) return Json::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume("false")) return Json::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume("null")) return Json::null();
        fail("invalid literal");
      default: return number();
    }
  }

  Json object(int depth) {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = string();
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      obj.set(key, value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json array(int depth) {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  unsigned hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9')
        code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        code |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    return code;
  }

  std::string string() {
    ++pos_;  // '"'
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape sequence");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require the paired low surrogate.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              const unsigned low = hex4();
              if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              fail("unpaired surrogate in \\u escape");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (digits() == 0) {
      pos_ = start;
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("digits required in exponent");
    }
    return Json::number(std::strtod(text_.c_str() + start, nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonError::JsonError(std::size_t offset, const std::string& message)
    : std::runtime_error("json: " + message + " (offset " +
                         std::to_string(offset) + ")"),
      offset_(offset) {}

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.flag_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::parse(const std::string& text) { return Parser(text).run(); }

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw JsonError(0, "expected a boolean");
  return flag_;
}

double Json::as_number() const {
  if (type_ == Type::kNull) return std::nan("");  // null ↔ NaN round-trip
  if (type_ != Type::kNumber) throw JsonError(0, "expected a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw JsonError(0, "expected a string");
  return str_;
}

std::size_t Json::size() const {
  return (type_ == Type::kArray || type_ == Type::kObject) ? children_.size()
                                                           : 0;
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::kArray) throw JsonError(0, "expected an array");
  if (index >= children_.size()) throw JsonError(0, "array index out of range");
  return children_[index].second;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& kv : children_)
    if (kv.first == key) return &kv.second;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (!v) throw JsonError(0, "missing field \"" + key + "\"");
  return *v;
}

Json& Json::set(const std::string& key, Json v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw JsonError(0, "set() on a non-object");
  for (auto& kv : children_)
    if (kv.first == key) {
      kv.second = std::move(v);
      return *this;
    }
  children_.emplace_back(key, std::move(v));
  return *this;
}

Json& Json::push(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw JsonError(0, "push() on a non-array");
  children_.emplace_back(std::string(), std::move(v));
  return children_.back().second;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += flag_ ? "true" : "false"; return;
    case Type::kNumber: append_number(out, num_); return;
    case Type::kString: append_escaped(out, str_); return;
    case Type::kArray:
    case Type::kObject: {
      const bool is_obj = type_ == Type::kObject;
      out += is_obj ? '{' : '[';
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) out += ',';
        if (indent > 0) {
          out += '\n';
          out.append(static_cast<std::size_t>((depth + 1) * indent), ' ');
        }
        if (is_obj) {
          append_escaped(out, children_[i].first);
          out += ':';
          if (indent > 0) out += ' ';
        }
        children_[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent > 0 && !children_.empty()) {
        out += '\n';
        out.append(static_cast<std::size_t>(depth * indent), ' ');
      }
      out += is_obj ? '}' : ']';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0, 0);
  return out;
}

std::string Json::pretty(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace cnash::util

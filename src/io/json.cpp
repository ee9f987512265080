#include "io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace dp::io {

namespace {

[[noreturn]] void typeError(const char* want, Json::Type got) {
  const char* names[] = {"null", "bool", "number", "string", "array",
                         "object"};
  throw std::runtime_error(std::string("Json: expected ") + want +
                           ", value is " +
                           names[static_cast<int>(got)]);
}

const Json& nullJson() {
  static const Json j;
  return j;
}

/// Recursive-descent parser over a byte range.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parseDocument() {
    Json v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error("Json::parse: " + msg + " at byte " +
                             std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLiteral(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parseValue(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skipWs();
    const char c = peek();
    switch (c) {
      case '{':
        return parseObject(depth);
      case '[':
        return parseArray(depth);
      case '"':
        return Json(parseString());
      case 't':
        if (consumeLiteral("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consumeLiteral("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consumeLiteral("null")) return Json();
        fail("invalid literal");
      default:
        return parseNumber();
    }
  }

  Json parseObject(int depth) {
    expect('{');
    Json obj = Json::object();
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skipWs();
      if (peek() != '"') fail("expected object key string");
      std::string key = parseString();
      skipWs();
      expect(':');
      obj.set(key, parseValue(depth + 1));
      skipWs();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parseArray(int depth) {
    expect('[');
    Json arr = Json::array();
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push(parseValue(depth + 1));
      skipWs();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          appendCodepoint(out, parseHex4());
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  unsigned parseHex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    return v;
  }

  static void appendCodepoint(std::string& out, unsigned cp) {
    // Basic-plane UTF-8 encoding; surrogate pairs are passed through
    // individually (the serving payloads are ASCII in practice).
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("invalid number");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void appendEscaped(std::string& out, const std::string& s) {
  out.push_back('"');
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
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no Inf/NaN
    return;
  }
  // Integers (the common case: counts, seeds, ports) print exactly.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parseDocument();
}

bool Json::asBool() const {
  if (type_ != Type::kBool) typeError("bool", type_);
  return bool_;
}

double Json::asDouble() const {
  if (type_ != Type::kNumber) typeError("number", type_);
  return number_;
}

long Json::asLong() const {
  if (type_ != Type::kNumber) typeError("number", type_);
  // Both bounds are powers of two, so exact as doubles; anything past
  // them, fractional or non-finite would otherwise be truncated,
  // wrapped or undefined.
  const double limit = std::ldexp(1.0, std::numeric_limits<long>::digits);
  if (!std::isfinite(number_) || number_ != std::trunc(number_) ||
      number_ < -limit || number_ >= limit)
    throw std::runtime_error("Json: number is not an integer in long range");
  return static_cast<long>(number_);
}

std::uint64_t Json::asUint64() const {
  if (type_ == Type::kString) {
    // Plain decimal digits only. std::from_chars takes no sign, blank
    // or prefix for an unsigned type (std::stoull would wrap "-1" to
    // 2^64 - 1), and the whole string must be consumed.
    std::uint64_t v = 0;
    const char* end = string_.data() + string_.size();
    const auto [ptr, ec] = std::from_chars(string_.data(), end, v);
    if (ec != std::errc() || ptr != end)
      throw std::runtime_error("Json: string is not a valid uint64: " +
                               string_);
    return v;
  }
  if (type_ != Type::kNumber) typeError("number or numeric string", type_);
  const double limit =
      std::ldexp(1.0, std::numeric_limits<std::uint64_t>::digits);
  if (!std::isfinite(number_) || number_ != std::trunc(number_) ||
      number_ < 0 || number_ >= limit)
    throw std::runtime_error("Json: number is not an integer in uint64 range");
  return static_cast<std::uint64_t>(number_);
}

const std::string& Json::asString() const {
  if (type_ != Type::kString) typeError("string", type_);
  return string_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  typeError("array or object", type_);
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray) typeError("array", type_);
  if (i >= array_.size())
    throw std::runtime_error("Json: array index out of range");
  return array_[i];
}

Json& Json::push(Json v) {
  if (type_ != Type::kArray) typeError("array", type_);
  array_.push_back(std::move(v));
  return *this;
}

bool Json::has(const std::string& key) const {
  if (type_ != Type::kObject) return false;
  for (const auto& [k, v] : object_)
    if (k == key) return true;
  return false;
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) typeError("object", type_);
  for (const auto& [k, v] : object_)
    if (k == key) return v;
  throw std::runtime_error("Json: missing required field \"" + key + "\"");
}

const Json& Json::get(const std::string& key) const {
  if (type_ != Type::kObject) return nullJson();
  for (const auto& [k, v] : object_)
    if (k == key) return v;
  return nullJson();
}

Json& Json::set(const std::string& key, Json v) {
  if (type_ != Type::kObject) typeError("object", type_);
  for (auto& [k, existing] : object_)
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  object_.emplace_back(key, std::move(v));
  return *this;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) typeError("object", type_);
  return object_;
}

std::string Json::dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      appendNumber(out, number_);
      break;
    case Type::kString:
      appendEscaped(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += array_[i].dump();
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out.push_back(',');
        first = false;
        appendEscaped(out, k);
        out.push_back(':');
        out += v.dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

}  // namespace dp::io

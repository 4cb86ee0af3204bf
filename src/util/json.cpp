#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gf::util {
namespace {

constexpr int kMaxDepth = 64;

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("json: " + what + " at byte " + std::to_string(pos));
}

}  // namespace

class Json::Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing content");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail(pos_, "bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail(pos_, "bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail(pos_, "bad literal");
      return Json();
    }
    return parse_number();
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    Members& members = std::get<Members>(obj.value_);
    skip_ws();
    if (peek() == '}') { ++pos_; return obj; }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // Appended unchecked: set()'s duplicate scan would make a hostile
      // object of n keys cost O(n^2).
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == '}') { ++pos_; return obj; }
      fail(pos_, "expected ',' or '}'");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return arr; }
    for (;;) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') { ++pos_; continue; }
      if (c == ']') { ++pos_; return arr; }
      fail(pos_, "expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail(pos_ - 1, "raw control character");
      if (c != '\\') { out += c; continue; }
      const char e = pos_ < text_.size() ? text_[pos_++] : '\0';
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out); break;
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail(pos_, "truncated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ - 1, "bad \\u escape");
    }
    return value;
  }

  void append_codepoint(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // surrogate pair
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        pos_ += 2;
        const unsigned lo = parse_hex4();
        if (lo < 0xDC00 || lo > 0xDFFF) fail(pos_, "unpaired surrogate");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail(pos_, "unpaired surrogate");
      }
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail(pos_, "expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail(start, "bad number '" + token + "'");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

namespace {

void render_string(const std::string& s, std::string& out) {
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

void render_number(double v, std::string& out) {
  if (!std::isfinite(v)) {  // JSON has no Inf/NaN; null is the honest spelling
    out += "null";
    return;
  }
  // Integers inside the exactly-representable range print without a
  // mantissa so counters look like counters; %.17g for everything else
  // keeps doubles bit-round-trippable. to_chars spells both exactly as
  // printf does, without its locale.
  char buf[32];
  const bool integral = v == std::floor(v) && std::fabs(v) < 9.007199254740992e15;
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 0)
               : std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void render(const Json& j, std::string& out) {
  switch (j.kind()) {
    case Json::Kind::kNull: out += "null"; return;
    case Json::Kind::kBool: out += j.as_bool() ? "true" : "false"; return;
    case Json::Kind::kNumber: render_number(j.as_number(), out); return;
    case Json::Kind::kString: render_string(j.as_string(), out); return;
    case Json::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : j.items()) {
        if (!first) out += ',';
        first = false;
        render(item, out);
      }
      out += ']';
      return;
    }
    case Json::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : j.members()) {
        if (!first) out += ',';
        first = false;
        render_string(key, out);
        out += ':';
        render(value, out);
      }
      out += '}';
      return;
    }
  }
}

[[noreturn]] void kind_error(const char* want) {
  throw std::invalid_argument(std::string("json: value is not ") + want);
}

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

Json Json::object(std::initializer_list<std::pair<std::string, Json>> members) {
  Json j = object();
  for (const auto& [key, value] : members) j.set(key, value);
  return j;
}

bool Json::as_bool() const {
  if (!is_bool()) kind_error("a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) kind_error("a number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) kind_error("a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::items() const {
  if (!is_array()) kind_error("an array");
  return std::get<Array>(value_);
}

const Json::Members& Json::members() const {
  if (!is_object()) kind_error("an object");
  return std::get<Members>(value_);
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Members& members = std::get<Members>(value_);
  for (auto it = members.rbegin(); it != members.rend(); ++it)
    if (it->first == key) return &it->second;
  return nullptr;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  if (!is_object()) kind_error("an object");
  Members& members = std::get<Members>(value_);
  for (auto it = members.rbegin(); it != members.rend(); ++it)
    if (it->first == key) {
      it->second = std::move(value);
      return *this;
    }
  members.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  if (!is_array()) kind_error("an array");
  std::get<Array>(value_).push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  render(*this, out);
  return out;
}

}  // namespace gf::util

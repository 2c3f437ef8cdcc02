#include "scenario/json_util.hpp"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "sim/config.hpp"

namespace pnoc::scenario {
namespace {

// Deepest array/object nesting the parser accepts.  The committed JSON
// documents nest at most 6 levels; the limit keeps a hostile line (e.g. a
// daemon client sending 100k '[') from recursing off the stack.
constexpr int kMaxDepth = 64;

void skipSpace(const std::string& text, std::size_t& pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
}

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
  throw std::invalid_argument(what + " at offset " + std::to_string(pos) +
                              " of JSON text");
}

std::uint32_t parseHex4(const std::string& text, std::size_t& pos) {
  if (pos + 4 > text.size()) fail("truncated \\u escape", pos);
  std::uint32_t code = 0;
  for (int i = 0; i < 4; ++i) {
    const char h = text[pos++];
    code <<= 4;
    if (h >= '0' && h <= '9') {
      code |= static_cast<std::uint32_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      code |= static_cast<std::uint32_t>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      code |= static_cast<std::uint32_t>(h - 'A' + 10);
    } else {
      fail("bad hex digit in \\u escape", pos - 1);
    }
  }
  return code;
}

void appendUtf8(std::string& out, std::uint32_t cp) {
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

std::string parseString(const std::string& text, std::size_t& pos) {
  if (pos >= text.size() || text[pos] != '"') fail("expected '\"'", pos);
  ++pos;
  std::string out;
  while (pos < text.size() && text[pos] != '"') {
    char c = text[pos++];
    if (c == '\\') {
      if (pos >= text.size()) fail("truncated escape", pos);
      const char escaped = text[pos++];
      switch (escaped) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'u': {
          std::uint32_t code = parseHex4(text, pos);
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: RFC 8259 requires a paired \uDC00..\uDFFF
            // low surrogate; together they name one supplementary-plane
            // code point.
            if (pos + 2 > text.size() || text[pos] != '\\' ||
                text[pos + 1] != 'u') {
              fail("high surrogate without a \\u low surrogate", pos);
            }
            pos += 2;
            const std::uint32_t low = parseHex4(text, pos);
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate paired with a non-surrogate", pos - 4);
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate", pos - 4);
          }
          appendUtf8(out, code);
          continue;  // already emitted as UTF-8 bytes
        }
        default: c = escaped; break;  // \" \\ \/: literal
      }
    }
    out += c;
  }
  if (pos >= text.size()) fail("unterminated string", pos);
  ++pos;  // closing quote
  return out;
}

bool isScalarChar(char c) {
  return std::isspace(static_cast<unsigned char>(c)) == 0 && c != ',' &&
         c != '}' && c != ']' && c != ':';
}

}  // namespace

bool JsonValue::asBool() const {
  if (kind_ == Kind::kBool) return scalar_ == "true";
  throw std::invalid_argument("JSON value '" + scalar_ + "' is not a boolean");
}

double JsonValue::asDouble() const {
  if (kind_ != Kind::kNumber) {
    throw std::invalid_argument("JSON value is not a number");
  }
  char* end = nullptr;
  const double parsed = std::strtod(scalar_.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    throw std::invalid_argument("'" + scalar_ + "' is not a number");
  }
  return parsed;
}

std::uint64_t JsonValue::asU64() const {
  if (kind_ != Kind::kNumber) {
    throw std::invalid_argument("JSON value is not an unsigned integer");
  }
  return sim::parseU64(scalar_);
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::kString) {
    throw std::invalid_argument("JSON value is not a string");
  }
  return scalar_;
}

const std::string& JsonValue::scalarText() const {
  if (kind_ == Kind::kObject || kind_ == Kind::kArray) {
    throw std::invalid_argument("JSON value is not a scalar");
  }
  return scalar_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (kind_ != Kind::kObject) {
    throw std::invalid_argument("JSON value is not an object");
  }
  return members_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) {
    throw std::invalid_argument("JSON value is not an array");
  }
  return items_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::invalid_argument("JSON object has no member '" + key + "'");
  }
  return *value;
}

JsonValue JsonValue::parsePrefix(const std::string& text, std::size_t& pos) {
  return parseNested(text, pos, 0);
}

JsonValue JsonValue::parseNested(const std::string& text, std::size_t& pos,
                                 int depth) {
  skipSpace(text, pos);
  if (pos >= text.size()) fail("truncated JSON", pos);
  JsonValue value;
  const char head = text[pos];
  if ((head == '{' || head == '[') && depth == kMaxDepth) {
    fail("JSON nested deeper than " + std::to_string(kMaxDepth) + " levels", pos);
  }
  if (head == '{') {
    value.kind_ = Kind::kObject;
    ++pos;
    skipSpace(text, pos);
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return value;
    }
    for (;;) {
      skipSpace(text, pos);
      std::string key = parseString(text, pos);
      skipSpace(text, pos);
      if (pos >= text.size() || text[pos] != ':') fail("expected ':'", pos);
      ++pos;
      value.members_.emplace_back(std::move(key), parseNested(text, pos, depth + 1));
      skipSpace(text, pos);
      if (pos >= text.size()) fail("unterminated object", pos);
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return value;
      }
      fail("expected ',' or '}'", pos);
    }
  }
  if (head == '[') {
    value.kind_ = Kind::kArray;
    ++pos;
    skipSpace(text, pos);
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return value;
    }
    for (;;) {
      value.items_.push_back(parseNested(text, pos, depth + 1));
      skipSpace(text, pos);
      if (pos >= text.size()) fail("unterminated array", pos);
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return value;
      }
      fail("expected ',' or ']'", pos);
    }
  }
  if (head == '"') {
    value.kind_ = Kind::kString;
    value.scalar_ = parseString(text, pos);
    return value;
  }
  // Bare scalar: number, true/false, null.
  const std::size_t start = pos;
  while (pos < text.size() && isScalarChar(text[pos])) ++pos;
  if (pos == start) fail("empty JSON value", pos);
  value.scalar_ = text.substr(start, pos - start);
  if (value.scalar_ == "true" || value.scalar_ == "false") {
    value.kind_ = Kind::kBool;
  } else if (value.scalar_ == "null") {
    value.kind_ = Kind::kNull;
  } else {
    value.kind_ = Kind::kNumber;
  }
  return value;
}

JsonValue JsonValue::parse(const std::string& text) {
  std::size_t pos = 0;
  JsonValue value = parsePrefix(text, pos);
  skipSpace(text, pos);
  if (pos != text.size()) fail("trailing text after JSON value", pos);
  return value;
}

std::string jsonEscape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Remaining control characters are illegal raw inside a JSON
          // string; \u00XX keeps the round trip byte-identical.
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  return out;
}

std::string formatDouble(double value) {
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace pnoc::scenario

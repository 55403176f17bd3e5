#include "profile/json.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace pvr::profile {

namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  const char* names[] = {"null", "bool", "number", "string", "array",
                         "object"};
  throw Error(std::string("json: expected ") + wanted + ", got " +
              names[static_cast<int>(got)]);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonPtr parse_document() {
    JsonPtr value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_keyword(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonPtr parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        ++depth_;
        JsonPtr value = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_keyword("true")) fail("bad literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_keyword("false")) fail("bad literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_keyword("null")) fail("bad literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonPtr parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonPtr>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonPtr parse_array() {
    expect('[');
    std::vector<JsonPtr> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(&out); break;
        default: fail(std::string("bad escape '\\") + esc + "'");
      }
    }
  }

  void append_unicode_escape(std::string* out) {
    // UTF-8-encode the code point; surrogate pairs are accepted but only
    // the BMP matters for bench output (which is ASCII anyway).
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
        text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
      pos_ += 2;
      const unsigned lo = parse_hex4();
      if (lo >= 0xDC00 && lo <= 0xDFFF) {
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else {
        fail("unpaired surrogate");
      }
    }
    if (cp < 0x80) {
      out->push_back(char(cp));
    } else if (cp < 0x800) {
      out->push_back(char(0xC0 | (cp >> 6)));
      out->push_back(char(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(char(0xE0 | (cp >> 12)));
      out->push_back(char(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(char(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(char(0xF0 | (cp >> 18)));
      out->push_back(char(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(char(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(char(0x80 | (cp & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= unsigned(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= unsigned(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= unsigned(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  JsonPtr parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("bad number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("bad exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<JsonPtr>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const std::vector<std::pair<std::string, JsonPtr>>& JsonValue::as_object()
    const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return object_;
}

JsonPtr JsonValue::find(const std::string& key) const {
  for (const auto& [name, value] : as_object()) {
    if (name == key) return value;
  }
  return nullptr;
}

JsonPtr JsonValue::at(const std::string& key) const {
  JsonPtr value = find(key);
  if (value == nullptr) throw Error("json: missing key \"" + key + "\"");
  return value;
}

double JsonValue::number_at(const std::string& key) const {
  return at(key)->as_number();
}

const std::string& JsonValue::string_at(const std::string& key) const {
  return at(key)->as_string();
}

JsonPtr JsonValue::make_null() { return std::make_shared<JsonValue>(); }

JsonPtr JsonValue::make_bool(bool b) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kBool;
  v->bool_ = b;
  return v;
}

JsonPtr JsonValue::make_number(double value) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kNumber;
  v->number_ = value;
  return v;
}

JsonPtr JsonValue::make_string(std::string s) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kString;
  v->string_ = std::move(s);
  return v;
}

JsonPtr JsonValue::make_array(std::vector<JsonPtr> items) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kArray;
  v->array_ = std::move(items);
  return v;
}

JsonPtr JsonValue::make_object(
    std::vector<std::pair<std::string, JsonPtr>> members) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kObject;
  v->object_ = std::move(members);
  return v;
}

JsonPtr parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

JsonPtr load_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open json file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse_json(buf.str());
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " (in " + path + ")");
  }
}

}  // namespace pvr::profile

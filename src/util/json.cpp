#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <ostream>

namespace ds::json {

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

namespace {

// Depth cap so a hostile request ("[[[[[…") cannot blow the daemon's stack.
constexpr int kMaxDepth = 64;

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status run(Value* out) {
    skip_ws();
    if (Status st = parse_value(out, 0); !st.is_ok()) return st;
    skip_ws();
    if (pos_ != text_.size())
      return fail("trailing characters after JSON value");
    return Status::ok();
  }

 private:
  Status fail(const std::string& what) const {
    return Status::error("json: " + what + " at offset " +
                         std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Status parse_value(Value* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        out->type_ = Value::Type::kString;
        return parse_string(&out->string_);
      }
      case 't':
        if (!consume_word("true")) return fail("bad literal");
        out->type_ = Value::Type::kBool;
        out->bool_ = true;
        return Status::ok();
      case 'f':
        if (!consume_word("false")) return fail("bad literal");
        out->type_ = Value::Type::kBool;
        out->bool_ = false;
        return Status::ok();
      case 'n':
        if (!consume_word("null")) return fail("bad literal");
        out->type_ = Value::Type::kNull;
        return Status::ok();
      default: return parse_number(out);
    }
  }

  Status parse_object(Value* out, int depth) {
    ++pos_;  // '{'
    out->type_ = Value::Type::kObject;
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (Status st = parse_string(&key); !st.is_ok()) return st;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      Value v;
      if (Status st = parse_value(&v, depth + 1); !st.is_ok()) return st;
      out->members_.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Status::ok();
      return fail("expected ',' or '}' in object");
    }
  }

  Status parse_array(Value* out, int depth) {
    ++pos_;  // '['
    out->type_ = Value::Type::kArray;
    skip_ws();
    if (consume(']')) return Status::ok();
    while (true) {
      skip_ws();
      Value v;
      if (Status st = parse_value(&v, depth + 1); !st.is_ok()) return st;
      out->array_.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Status::ok();
      return fail("expected ',' or ']' in array");
    }
  }

  Status parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(&code)) return fail("bad \\u escape");
          // Surrogate pairs: a high surrogate must be followed by \uDC00-DFFF.
          if (code >= 0xD800 && code <= 0xDBFF) {
            unsigned lo = 0;
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              if (!parse_hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF)
                return fail("bad low surrogate");
              code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("lone high surrogate");
            }
          }
          append_utf8(out, code);
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return false;
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status parse_number(Value* out) {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double v = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc() || ptr == begin) return fail("bad number");
    pos_ += static_cast<std::size_t>(ptr - begin);
    out->type_ = Value::Type::kNumber;
    out->number_ = v;
    return Status::ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Status parse(std::string_view text, Value* out) {
  *out = Value();
  return Parser(text).run(out);
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string number(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

}  // namespace ds::json

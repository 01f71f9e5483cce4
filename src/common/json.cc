#include "common/json.h"

#include <algorithm>
#include <charconv>

#include "common/macros.h"
#include "common/string_util.h"

namespace gly::json {

namespace {

void AppendUtf8(uint32_t code_point, std::string* out) {
  if (code_point < 0x80) {
    *out += static_cast<char>(code_point);
    return;
  }
  // A lead byte whose high bits count the continuation bytes, then 6 bits
  // per continuation byte.
  int tail = code_point < 0x800 ? 1 : code_point < 0x10000 ? 2 : 3;
  *out += static_cast<char>((0xFF << (7 - tail)) | (code_point >> (6 * tail)));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
    *out += static_cast<char>(0x80 | ((code_point >> shift) & 0x3F));
  }
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

Status TypeError(std::string_view want) {
  return Status::InvalidArgument("expected " + std::string(want));
}

}  // namespace

// Recursive descent over the RFC 8259 grammar; `depth` counts the arrays
// and objects enclosing the value being parsed.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Document() {
    Value value;
    GLY_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(std::string_view what) const {
    return Status::InvalidArgument("invalid JSON at byte " +
                                   std::to_string(pos_) + ": " +
                                   std::string(what));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && IsWhitespace(text_[pos_])) ++pos_;
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  // Skips a run of digits; false when there was none.
  bool SkipDigits() {
    size_t start = pos_;
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
    return pos_ > start;
  }

  Status ParseValue(Value* out, int depth) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) {
        return Error("nesting deeper than " + std::to_string(kMaxDepth));
      }
      if (c == '[') return ParseArray(out, depth + 1);
      return ParseObject(out, depth + 1);
    }
    if (c == '"') return ParseString(&out->data_.emplace<std::string>());
    if (c == '-' || IsDigit(c)) return ParseNumber(out);
    if (Consume("true")) {
      out->data_ = true;
    } else if (Consume("false")) {
      out->data_ = false;
    } else if (!Consume("null")) {
      return Error("unexpected character");
    }
    return Status::OK();
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status ParseNumber(Value* out) {
    size_t start = pos_;
    Consume("-");
    if (!Consume("0") && !SkipDigits()) return Error("bad number");
    if (Consume(".") && !SkipDigits()) return Error("bad number fraction");
    if (Consume("e") || Consume("E")) {
      if (!Consume("+")) Consume("-");
      if (!SkipDigits()) return Error("bad number exponent");
    }
    out->data_ = Value::Number{std::string(text_.substr(start, pos_ - start))};
    return Status::OK();
  }

  Status ParseHex4(uint32_t* out) {
    const char* begin = text_.data() + pos_;
    const char* end = begin + std::min<size_t>(4, text_.size() - pos_);
    auto [ptr, ec] = std::from_chars(begin, end, *out, 16);
    if (ec != std::errc() || ptr != begin + 4) return Error("bad \\u escape");
    pos_ += 4;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    ++pos_;  // opening quote
    while (true) {
      size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out->append(text_.substr(run, pos_ - run));
      if (pos_ >= text_.size()) return Error("unterminated string");
      if (Consume("\"")) return Status::OK();
      if (!Consume("\\")) return Error("unescaped control character");
      if (pos_ >= text_.size()) return Error("unterminated string");
      if (size_t i = kEscapes.find(text_[pos_]); i != std::string_view::npos) {
        *out += kDecoded[i];
        ++pos_;
        continue;
      }
      if (!Consume("u")) return Error("bad escape");
      uint32_t unit = 0;
      GLY_RETURN_NOT_OK(ParseHex4(&unit));
      if (unit >= 0xD800 && unit <= 0xDBFF) {
        uint32_t low = 0;
        if (!Consume("\\u")) return Error("unpaired surrogate");
        GLY_RETURN_NOT_OK(ParseHex4(&low));
        if (low < 0xDC00 || low > 0xDFFF) return Error("unpaired surrogate");
        unit = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
      } else if (unit >= 0xDC00 && unit <= 0xDFFF) {
        return Error("unpaired surrogate");
      }
      AppendUtf8(unit, out);
    }
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    Value::Array& items = out->data_.emplace<Value::Array>();
    SkipWhitespace();
    if (Consume("]")) return Status::OK();
    while (true) {
      GLY_RETURN_NOT_OK(ParseValue(&items.emplace_back(), depth));
      SkipWhitespace();
      if (Consume("]")) return Status::OK();
      if (!Consume(",")) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    Value::Object& members = out->data_.emplace<Value::Object>();
    SkipWhitespace();
    if (Consume("}")) return Status::OK();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a string key in object");
      }
      auto& [key, value] = members.emplace_back();
      GLY_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(":")) return Error("expected ':' in object");
      GLY_RETURN_NOT_OK(ParseValue(&value, depth));
      SkipWhitespace();
      if (Consume("}")) return Status::OK();
      if (!Consume(",")) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<Value> Parse(std::string_view text) { return Parser(text).Document(); }

const Value* Value::Find(std::string_view key) const {
  if (const Object* members = object()) {
    for (const auto& [name, value] : *members) {
      if (name == key) return &value;
    }
  }
  return nullptr;
}

template <>
Result<bool> Value::As<bool>() const {
  if (const auto* b = std::get_if<bool>(&data_)) return *b;
  return TypeError("a boolean");
}

template <>
Result<std::string> Value::As<std::string>() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  return TypeError("a string");
}

template <>
Result<double> Value::As<double>() const {
  if (const auto* n = std::get_if<Number>(&data_)) return ParseDouble(n->text);
  return TypeError("a number");
}

template <>
Result<uint64_t> Value::As<uint64_t>() const {
  if (const auto* n = std::get_if<Number>(&data_)) return ParseUint64(n->text);
  return TypeError("a number");
}

template <>
Result<uint32_t> Value::As<uint32_t>() const {
  GLY_ASSIGN_OR_RETURN(uint64_t value, As<uint64_t>());
  if (value > UINT32_MAX) return Status::InvalidArgument("exceeds uint32");
  return static_cast<uint32_t>(value);
}

Result<const Value::Array*> Value::GetArray(std::string_view key) const {
  const Value* member = Find(key);
  if (member != nullptr && member->array() != nullptr) return member->array();
  return Status::InvalidArgument("key \"" + std::string(key) +
                                 "\": expected an array");
}

}  // namespace gly::json

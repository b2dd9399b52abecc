#include "serve/json.h"

#include <array>
#include <charconv>
#include <cmath>
#include <tuple>
#include <utility>

namespace domd {

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

void JsonValue::Append(JsonValue value) { items_.push_back(std::move(value)); }

void JsonValue::Set(std::string_view key, JsonValue value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : fallback;
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

namespace {

/// Appends `text` quoted and escaped, each run of bytes that needs no
/// escape in one call.
void AppendQuoted(std::string_view text, std::string* out) {
  out->push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
  out->push_back('"');
}

void AppendNumber(double value, std::string* out) {
  char buf[32];
  // The integer fast-path must skip -0.0: casting to long long would emit
  // "0" and lose the sign on the round-trip (to_chars keeps "-0").
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15 && !(value == 0.0 && std::signbit(value))) {
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf),
                                         static_cast<long long>(value));
    out->append(buf, ptr);
    return;
  }
  if (!std::isfinite(value)) {
    out->append("null");  // JSON has no Inf/NaN.
    return;
  }
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec == std::errc()) {
    out->append(buf, ptr);
  } else {
    out->push_back('0');
  }
}

}  // namespace

std::string JsonQuote(std::string_view text) {
  std::string out;
  AppendQuoted(text, &out);
  return out;
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

void JsonValue::SerializeTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kNumber:
      AppendNumber(number_, out);
      return;
    case Kind::kString:
      AppendQuoted(string_, out);
      return;
    case Kind::kArray:
      out->push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out->push_back(',');
        items_[i].SerializeTo(out);
      }
      out->push_back(']');
      return;
    case Kind::kObject:
      out->push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out->push_back(',');
        AppendQuoted(members_[i].first, out);
        out->push_back(':');
        members_[i].second.SerializeTo(out);
      }
      out->push_back('}');
      return;
  }
  out->append("null");
}

/// Recursive-descent JSON parser over a string_view with a depth cap
/// (untrusted network input must not be able to overflow the stack). Each
/// value is built where it lives: the caller's result, an array slot or an
/// object member.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Status ParseDocument(JsonValue* out) {
    DOMD_RETURN_IF_ERROR(ParseValue(0, out));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return Status::OK();
  }

 private:
  using Kind = JsonValue::Kind;
  static constexpr int kMaxDepth = 64;

  /// Parses one value into `out`, which is null.
  Status ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) {
      return Status::InvalidArgument("json: nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("json: unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"':
        out->kind_ = Kind::kString;
        return ParseString(&out->string_);
      case 't':
      case 'f':
        out->kind_ = Kind::kBool;
        out->bool_ = text_[pos_] == 't';
        return Consume(out->bool_ ? "true" : "false");
      case 'n':
        return Consume("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
            c == '-' || c == '+')) {
        break;
      }
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      return Status::InvalidArgument("json: malformed number at offset " +
                                     std::to_string(start));
    }
    out->kind_ = Kind::kNumber;
    out->number_ = value;
    return Status::OK();
  }

  /// Appends the string at pos_ to `out`: each run up to the next quote
  /// or backslash in one call.
  Status ParseString(std::string* out) {
    if (text_[pos_] != '"') {
      return Status::InvalidArgument("json: expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      out->append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) break;
      if (text_[pos_] == '"') {
        ++pos_;
        return Status::OK();
      }
      if (pos_ + 1 >= text_.size()) break;  // a lone trailing backslash.
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u':
          DOMD_RETURN_IF_ERROR(ParseUnicodeEscape(out));
          break;
        default:
          return Status::InvalidArgument("json: bad escape character");
      }
    }
    return Status::InvalidArgument("json: unterminated string");
  }

  /// The four hex digits after "\u", appended to `out` as UTF-8 (basic
  /// multilingual plane only; surrogate pairs never appear in this
  /// codebase's ASCII identifiers).
  Status ParseUnicodeEscape(std::string* out) {
    if (pos_ + 4 > text_.size()) {
      return Status::InvalidArgument("json: truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + static_cast<std::size_t>(i)];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Status::InvalidArgument("json: bad \\u escape");
      }
    }
    pos_ += 4;
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return Status::OK();
  }

  Status ParseArray(int depth, JsonValue* out) {
    ++pos_;  // '['
    out->kind_ = Kind::kArray;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      DOMD_RETURN_IF_ERROR(ParseValue(depth + 1, &out->items_.emplace_back()));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Status::InvalidArgument("json: expected ',' or ']'");
    }
  }

  Status ParseObject(int depth, JsonValue* out) {
    ++pos_;  // '{'
    out->kind_ = Kind::kObject;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    // Sibling objects mostly share their members (an RCC stream), so the
    // last object closed at this depth sizes this one's vector.
    out->members_.reserve(member_hint_[depth]);
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated object");
      }
      std::string key;
      DOMD_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::InvalidArgument("json: expected ':' after key");
      }
      ++pos_;
      DOMD_RETURN_IF_ERROR(
          ParseValue(depth + 1, MemberSlot(out, std::move(key))));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        member_hint_[depth] = out->members_.size();
        return Status::OK();
      }
      return Status::InvalidArgument("json: expected ',' or '}'");
    }
  }

  /// The null value that `key`'s member of `object` is parsed into. A
  /// duplicate key overwrites its first occurrence in place, as Set does.
  static JsonValue* MemberSlot(JsonValue* object, std::string key) {
    for (auto& [k, v] : object->members_) {
      if (k == key) {
        v = JsonValue();
        return &v;
      }
    }
    return &object->members_
                .emplace_back(std::piecewise_construct,
                              std::forward_as_tuple(std::move(key)),
                              std::forward_as_tuple())
                .second;
  }

  Status Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) {
      return Status::InvalidArgument("json: bad token");
    }
    pos_ += token.size();
    return Status::OK();
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::array<std::size_t, kMaxDepth + 1> member_hint_{};
};

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonValue value;
  DOMD_RETURN_IF_ERROR(JsonParser(text).ParseDocument(&value));
  return value;
}

}  // namespace domd

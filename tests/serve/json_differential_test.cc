// Differential test of the wire's JSON codec against a frozen copy of the
// codec it replaced, which built a StatusOr<JsonValue> for every value and
// serialized by concatenating returned strings. On every input both must
// accept or reject alike, with the same status code and message bytes, and
// build the same tree: kinds, member order, string bytes and number bits.
// On random trees both serializers must write the same bytes. The inputs
// are seeded: random trees written with random whitespace and escapes, the
// benchmark's real line shapes, and mutations of both. This is also the
// JSON parser's deterministic fuzz driver: every input ends in a Status.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "ingest/mutation.h"
#include "serve/json.h"
#include "serve/wire.h"
#include "synth/generator.h"

namespace domd {
namespace {

// --- The oracle: the previous codec, frozen. It builds its trees through
// JsonValue's public factories, Append and Set, as it always did. ---
namespace oracle {

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

std::string FormatNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15 && !(value == 0.0 && std::signbit(value))) {
    return std::to_string(static_cast<long long>(value));
  }
  if (!std::isfinite(value)) return "null";
  std::array<char, 32> buf;
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  return ec == std::errc() ? std::string(buf.data(), ptr) : "0";
}

std::string Serialize(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return value.bool_value() ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return FormatNumber(value.number_value());
    case JsonValue::Kind::kString:
      return Quote(value.string_value());
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < value.items().size(); ++i) {
        if (i != 0) out += ",";
        out += Serialize(value.items()[i]);
      }
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < value.members().size(); ++i) {
        if (i != 0) out += ",";
        out += Quote(value.members()[i].first);
        out += ":";
        out += Serialize(value.members()[i].second);
      }
      return out + "}";
    }
  }
  return "null";
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    auto value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  StatusOr<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Status::InvalidArgument("json: nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("json: unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) return s.status();
      return JsonValue::String(std::move(*s));
    }
    if (c == 't' || c == 'f') return ParseKeyword(c == 't');
    if (c == 'n') {
      if (!Consume("null")) return Status::InvalidArgument("json: bad token");
      return JsonValue::Null();
    }
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseKeyword(bool value) {
    if (!Consume(value ? "true" : "false")) {
      return Status::InvalidArgument("json: bad token");
    }
    return JsonValue::Bool(value);
  }

  StatusOr<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc() || ptr != text_.data() + pos_ || pos_ == start) {
      return Status::InvalidArgument("json: malformed number at offset " +
                                     std::to_string(start));
    }
    return JsonValue::Number(value);
  }

  StatusOr<std::string> ParseString() {
    if (text_[pos_] != '"') {
      return Status::InvalidArgument("json: expected string");
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
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
          default:
            return Status::InvalidArgument("json: bad escape character");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return Status::InvalidArgument("json: unterminated string");
  }

  StatusOr<JsonValue> ParseArray(int depth) {
    ++pos_;
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      array.Append(std::move(*value));
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
        return array;
      }
      return Status::InvalidArgument("json: expected ',' or ']'");
    }
  }

  StatusOr<JsonValue> ParseObject(int depth) {
    ++pos_;
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated object");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::InvalidArgument("json: expected ':' after key");
      }
      ++pos_;
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      object.Set(*key, std::move(*value));
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
        return object;
      }
      return Status::InvalidArgument("json: expected ',' or '}'");
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
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
};

StatusOr<JsonValue> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace oracle

// --- Comparison. ---

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Empty when `got` and `want` are the same tree, else the path of the
/// first difference.
std::string FirstDifference(const JsonValue& got, const JsonValue& want,
                            const std::string& path = "$") {
  if (got.kind() != want.kind()) return path + ": kind";
  switch (want.kind()) {
    case JsonValue::Kind::kNull:
      return "";
    case JsonValue::Kind::kBool:
      return got.bool_value() == want.bool_value() ? "" : path + ": bool";
    case JsonValue::Kind::kNumber:
      return Bits(got.number_value()) == Bits(want.number_value())
                 ? ""
                 : path + ": number bits";
    case JsonValue::Kind::kString:
      return got.string_value() == want.string_value() ? ""
                                                       : path + ": string";
    case JsonValue::Kind::kArray: {
      if (got.items().size() != want.items().size()) return path + ": size";
      for (std::size_t i = 0; i < want.items().size(); ++i) {
        std::string diff =
            FirstDifference(got.items()[i], want.items()[i],
                            path + "[" + std::to_string(i) + "]");
        if (!diff.empty()) return diff;
      }
      return "";
    }
    case JsonValue::Kind::kObject: {
      if (got.members().size() != want.members().size()) {
        return path + ": member count";
      }
      for (std::size_t i = 0; i < want.members().size(); ++i) {
        const auto& [got_key, got_value] = got.members()[i];
        const auto& [want_key, want_value] = want.members()[i];
        if (got_key != want_key) {
          return path + ": key " + std::to_string(i);
        }
        std::string diff =
            FirstDifference(got_value, want_value, path + "." + want_key);
        if (!diff.empty()) return diff;
      }
      return "";
    }
  }
  return path + ": unknown kind";
}

std::string Show(std::string_view text) {
  constexpr std::size_t kShown = 160;
  return std::to_string(text.size()) + " bytes: " +
         testing::PrintToString(std::string(text.substr(0, kShown))) +
         (text.size() > kShown ? "..." : "");
}

/// Counts of what SameParse saw, so each test can show that its inputs
/// reached both outcomes.
struct Outcomes {
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t total() const { return ok + rejected; }
};

/// Both parsers agree on `text`: the same ok/error result, the same status
/// code and message bytes, and for ok results the same tree.
testing::AssertionResult SameParse(std::string_view text,
                                   Outcomes* outcomes) {
  const auto got = JsonValue::Parse(text);
  const auto want = oracle::Parse(text);
  if (got.ok() != want.ok()) {
    return testing::AssertionFailure()
           << "ok " << got.ok() << " vs oracle " << want.ok() << " ("
           << (want.ok() ? got.status() : want.status()).ToString()
           << ") on " << Show(text);
  }
  if (!want.ok()) {
    ++outcomes->rejected;
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return testing::AssertionFailure()
             << got.status().ToString() << " vs oracle "
             << want.status().ToString() << " on " << Show(text);
    }
    return testing::AssertionSuccess();
  }
  ++outcomes->ok;
  const std::string diff = FirstDifference(*got, *want);
  if (!diff.empty()) {
    return testing::AssertionFailure()
           << "trees differ at " << diff << " on " << Show(text);
  }
  return testing::AssertionSuccess();
}

/// Both serializers write the same bytes for `value`.
testing::AssertionResult SameSerialize(const JsonValue& value) {
  const std::string got = value.Serialize();
  const std::string want = oracle::Serialize(value);
  if (got == want) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << Show(got) << "\n  vs oracle " << Show(want);
}

// --- Inputs. ---

/// Bytes that steer the string codec: quotes, backslashes, every control
/// byte class, DEL, high bytes and plain text.
char RandomStringByte(Rng* rng) {
  static constexpr char kSpecial[] = {'"',    '\\',   '/',    '\n', '\r',
                                      '\t',   '\b',   '\f',   '\0', '\x01',
                                      '\x1f', '\x7f', '\x80', '\xc3', '\xa9',
                                      '\xff', ' ',    'u'};
  if (rng->Bernoulli(0.3)) {
    return kSpecial[rng->Next() % sizeof(kSpecial)];
  }
  return static_cast<char>(rng->UniformInt('0', 'z'));
}

std::string RandomString(Rng* rng, std::size_t max_length) {
  std::string out;
  const std::size_t length = rng->Next() % (max_length + 1);
  for (std::size_t i = 0; i < length; ++i) out.push_back(RandomStringByte(rng));
  return out;
}

/// Numbers that steer the serializer's integer fast path and shortest
/// round-trip writer, including the non-finite values it writes as null.
double RandomNumber(Rng* rng) {
  switch (rng->Next() % 12) {
    case 0:
      return static_cast<double>(rng->UniformInt(-1000, 1000));
    case 1:
      return static_cast<double>(rng->UniformInt(-(std::int64_t{1} << 53),
                                                 std::int64_t{1} << 53));
    case 2: {
      static constexpr double kEdges[] = {
          0.0,    -0.0,   1e15,     -1e15,       1e15 - 1,
          1e15 + 2, 1e16, 0.5,      -0.5,        1e300,
          1e-300, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308};
      return kEdges[rng->Next() % (sizeof(kEdges) / sizeof(kEdges[0]))];
    }
    case 3: {
      static constexpr double kNonFinite[] = {
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN()};
      return kNonFinite[rng->Next() % 3];
    }
    case 4: {
      // Any finite bit pattern.
      for (;;) {
        const double value = std::bit_cast<double>(rng->Next());
        if (std::isfinite(value)) return value;
      }
    }
    case 5:
      return std::round(rng->Uniform(0, 1e6) * 100) / 100;  // cents.
    default:
      return rng->Uniform(-1e4, 1e4);
  }
}

JsonValue RandomTree(Rng* rng, int depth) {
  const std::uint64_t pick = rng->Next() % (depth >= 5 ? 4 : 6);
  switch (pick) {
    case 0:
      return JsonValue::Null();
    case 1:
      return JsonValue::Bool(rng->Bernoulli(0.5));
    case 2:
      return JsonValue::Number(RandomNumber(rng));
    case 3:
      return JsonValue::String(RandomString(rng, 12));
    case 4: {
      JsonValue array = JsonValue::Array();
      const std::uint64_t size = rng->Next() % 6;
      for (std::uint64_t i = 0; i < size; ++i) {
        array.Append(RandomTree(rng, depth + 1));
      }
      return array;
    }
    default: {
      JsonValue object = JsonValue::Object();
      const std::uint64_t size = rng->Next() % 6;
      for (std::uint64_t i = 0; i < size; ++i) {
        // Short keys from a small alphabet, so Set overwrites at times.
        object.Set(RandomString(rng, 3), RandomTree(rng, depth + 1));
      }
      return object;
    }
  }
}

void Whitespace(Rng* rng, std::string* out) {
  static constexpr char kSpace[] = {' ', '\t', '\n', '\r'};
  while (rng->Bernoulli(0.3)) out->push_back(kSpace[rng->Next() % 4]);
}

/// `text` as a JSON string literal, each byte written in one of the forms
/// the grammar allows for it: raw, a short escape, or \u with random hex
/// case.
void WriteString(std::string_view text, Rng* rng, std::string* out) {
  out->push_back('"');
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    const bool must_escape = byte < 0x20 || c == '"' || c == '\\';
    if (byte < 0x80 && rng->Bernoulli(must_escape ? 0.3 : 0.05)) {
      char escape[7];
      std::snprintf(escape, sizeof(escape),
                    rng->Bernoulli(0.5) ? "\\u%04x" : "\\u%04X", byte);
      out->append(escape);
      continue;
    }
    if (!must_escape) {
      if (c == '/' && rng->Bernoulli(0.5)) {
        out->append("\\/");
      } else {
        out->push_back(c);
      }
      continue;
    }
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
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default: {
        char escape[7];
        std::snprintf(escape, sizeof(escape), "\\u%04x", byte);
        out->append(escape);
      }
    }
  }
  out->push_back('"');
}

/// A finite number in one of several spellings that parse to it.
void WriteNumber(double value, Rng* rng, std::string* out) {
  char buf[64];
  switch (rng->Next() % 4) {
    case 0:
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      break;
    case 1:
      std::snprintf(buf, sizeof(buf), "%.17E", value);
      break;
    case 2: {
      const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf) - 1, value,
                                           std::chars_format::scientific);
      *ptr = '\0';
      break;
    }
    default:
      out->append(oracle::FormatNumber(value));
      return;
  }
  out->append(buf);
}

/// `value` as JSON text with random whitespace between tokens, random
/// string and number spellings, and now and then an earlier duplicate of
/// a member (a later duplicate overwrites it in place).
void WriteText(const JsonValue& value, Rng* rng, std::string* out) {
  Whitespace(rng, out);
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out->append("null");
      break;
    case JsonValue::Kind::kBool:
      out->append(value.bool_value() ? "true" : "false");
      break;
    case JsonValue::Kind::kNumber:
      if (std::isfinite(value.number_value())) {
        WriteNumber(value.number_value(), rng, out);
      } else {
        out->append("null");
      }
      break;
    case JsonValue::Kind::kString:
      WriteString(value.string_value(), rng, out);
      break;
    case JsonValue::Kind::kArray:
      out->push_back('[');
      for (std::size_t i = 0; i < value.items().size(); ++i) {
        if (i != 0) out->push_back(',');
        WriteText(value.items()[i], rng, out);
      }
      Whitespace(rng, out);
      out->push_back(']');
      break;
    case JsonValue::Kind::kObject:
      out->push_back('{');
      for (std::size_t i = 0; i < value.members().size(); ++i) {
        const auto& [key, member] = value.members()[i];
        if (i != 0) out->push_back(',');
        if (rng->Bernoulli(0.1)) {
          WriteString(key, rng, out);
          out->append(":0,");
        }
        Whitespace(rng, out);
        WriteString(key, rng, out);
        Whitespace(rng, out);
        out->push_back(':');
        WriteText(member, rng, out);
      }
      Whitespace(rng, out);
      out->push_back('}');
      break;
  }
  Whitespace(rng, out);
}

/// One random edit of `text`: a truncation, a byte flip, an inserted bad or
/// truncated \u escape, a lone trailing backslash, a spliced malformed
/// number or a duplicated member.
std::string Mutate(const std::string& text, Rng* rng) {
  static constexpr const char* kSplices[] = {
      "\\u12G4", "\\u", "\\u00", "\\uZZZZ", "\\x", "\\",  "+1", ".5",
      "01",      "1e",  "-",     "1e400",   "1e-400", "--1", "1.2.3",
      "nul",     "tru", "\"",    "{",       "}",      "[",  "]",
      ",",       ":",   "\"a\":1,"};
  static constexpr char kFlips[] = {'"', '\\', '{', '}', '[', ']', ',',
                                    ':', '0',  'e', '-', ' ', '\n', 'n',
                                    't', 'u',  '\0', '\x80'};
  std::string out = text;
  const std::size_t at = out.empty() ? 0 : rng->Next() % (out.size() + 1);
  switch (rng->Next() % 6) {
    case 0:
      out.resize(at);
      break;
    case 1:
      if (!out.empty()) {
        out[std::min(at, out.size() - 1)] =
            kFlips[rng->Next() % sizeof(kFlips)];
      }
      break;
    case 2:
    case 3:
      out.insert(at, kSplices[rng->Next() % std::size(kSplices)]);
      break;
    case 4:
      out.resize(at);
      out.append(rng->Bernoulli(0.5) ? "\"\\" : "\"\\u12");
      break;
    default: {
      // Repeat the first member of the first object, with another value.
      const std::size_t open = out.find("{\"");
      const std::size_t colon = out.find("\":", open);
      if (open != std::string::npos && colon != std::string::npos) {
        out.insert(colon + 2, "true,\"" +
                                  out.substr(open + 2, colon - open - 2) +
                                  "\":");
      }
    }
  }
  return out;
}

/// The benchmark's line shapes, built as the benchmark and the servers
/// build them, from a small synthetic fleet.
class WireLines {
 public:
  WireLines(int num_avails, double mean_rccs_per_avail) {
    SynthConfig synth;
    synth.num_avails = num_avails;
    synth.mean_rccs_per_avail = mean_rccs_per_avail;
    synth.seed = 7;
    fleet_ = GenerateDataset(synth);
  }

  std::size_t num_avails() const { return fleet_.avails.rows().size(); }

  std::string Point(Rng* rng) const {
    return "{\"avail_id\":" + std::to_string(AvailId(rng)) +
           ",\"t_star\":" + std::to_string(rng->UniformInt(0, 10) * 10) + "}";
  }

  std::string Scatter(Rng* rng) const {
    std::string line = "{\"avail_ids\":[";
    for (int i = 0; i < 8; ++i) {
      if (i != 0) line.push_back(',');
      line += std::to_string(AvailId(rng));
    }
    return line + "],\"t_star\":" +
           std::to_string(rng->UniformInt(0, 10) * 10) + "}";
  }

  /// A detached request: an avail with its RCC stream, cut to `max_rccs`.
  std::string Detached(std::size_t index, std::size_t max_rccs,
                       Rng* rng) const {
    const Avail& avail = fleet_.avails.rows()[index % num_avails()];
    JsonValue rccs = JsonValue::Array();
    for (const std::size_t row : fleet_.rccs.RowsForAvail(avail.id)) {
      if (rccs.items().size() >= max_rccs) break;
      rccs.Append(RccJson(fleet_.rccs.rows()[row], false));
    }
    return "{\"avail\":" + AvailJson(avail).Serialize() +
           ",\"rccs\":" + rccs.Serialize() + ",\"top_k\":5,\"t_star\":" +
           std::to_string(rng->UniformInt(0, 10) * 10) + "}";
  }

  std::string Ingest(Rng* rng) const {
    JsonValue rccs = JsonValue::Array();
    for (int i = 0; i < 8; ++i) {
      rccs.Append(RccJson(AnyRcc(rng), true));
    }
    JsonValue line = JsonValue::Object();
    line.Set("cmd", JsonValue::String("ingest"));
    if (rng->Bernoulli(0.3)) {
      JsonValue avails = JsonValue::Array();
      avails.Append(AvailJson(
          fleet_.avails.rows()[rng->Next() % num_avails()]));
      line.Set("avails", std::move(avails));
    }
    line.Set("rccs", std::move(rccs));
    return line.Serialize();
  }

  /// A replicate push: mutation payloads as strings, as a primary ships
  /// them, or a snapshot with a hex chain.
  std::string Replicate(Rng* rng) const {
    JsonValue payloads = JsonValue::Array();
    for (int i = 0; i < 4; ++i) {
      payloads.Append(JsonValue::String(
          rng->Bernoulli(0.2)
              ? EncodeMutation(MakeAvailUpsert(
                    fleet_.avails.rows()[rng->Next() % num_avails()]))
              : EncodeMutation(MakeRccUpsert(AnyRcc(rng)))));
    }
    JsonValue line = JsonValue::Object();
    line.Set("cmd", JsonValue::String("replicate"));
    if (rng->Bernoulli(0.3)) {
      line.Set("snapshot", JsonValue::Bool(true));
      line.Set("rows", std::move(payloads));
      line.Set("last_seq", JsonValue::Number(static_cast<double>(
                               rng->UniformInt(1, 1 << 20))));
      line.Set("chain", JsonValue::String("9f3c01ab77e2d410"));
    } else {
      line.Set("first_seq", JsonValue::Number(static_cast<double>(
                                rng->UniformInt(1, 1 << 20))));
      line.Set("records", std::move(payloads));
    }
    return line.Serialize();
  }

  /// A point answer, an error answer or a stats answer.
  std::string Answer(Rng* rng) const {
    if (rng->Bernoulli(0.2)) {
      return ErrorToJson(Status::InvalidArgument(
                             "missing rcc member \"swlin\"\n" +
                             RandomString(rng, 6)))
          .Serialize();
    }
    if (rng->Bernoulli(0.1)) {
      ServeStatsSnapshot stats;
      stats.submitted = rng->Next() % 100000;
      stats.bundle_version = "v" + std::to_string(rng->Next() % 9);
      return StatsToJson(stats).Serialize();
    }
    ServePrediction prediction;
    prediction.avail_id = AvailId(rng);
    prediction.t_star = static_cast<double>(rng->UniformInt(0, 10) * 10);
    prediction.estimate_days = rng->Uniform(-50, 300);
    prediction.band_low = prediction.estimate_days - rng->Uniform(0, 40);
    prediction.band_high = prediction.estimate_days + rng->Uniform(0, 40);
    prediction.num_steps = rng->Next() % 11;
    prediction.bundle_version = "bench-v" + std::to_string(rng->Next() % 4);
    for (int i = 0; i < 5; ++i) {
      prediction.top_features.push_back(
          {"feature_" + std::to_string(rng->Next() % 90),
           rng->Uniform(-20, 20)});
    }
    return PredictionToJson(prediction, rng->Uniform(0, 3)).Serialize();
  }

  std::string AnyLine(Rng* rng) const {
    switch (rng->Next() % 6) {
      case 0:
        return Point(rng);
      case 1:
        return Scatter(rng);
      case 2:
        return Detached(rng->Next(), rng->Next() % 12, rng);
      case 3:
        return Ingest(rng);
      case 4:
        return Replicate(rng);
      default:
        return Answer(rng);
    }
  }

 private:
  std::int64_t AvailId(Rng* rng) const {
    return fleet_.avails.rows()[rng->Next() % num_avails()].id;
  }

  const Rcc& AnyRcc(Rng* rng) const {
    return fleet_.rccs.rows()[rng->Next() % fleet_.rccs.rows().size()];
  }

  static JsonValue AvailJson(const Avail& avail) {
    JsonValue out = JsonValue::Object();
    const auto number = [&out](const char* key, double value) {
      out.Set(key, JsonValue::Number(value));
    };
    number("id", static_cast<double>(avail.id));
    number("ship_id", static_cast<double>(avail.ship_id));
    out.Set("status", JsonValue::String(AvailStatusToString(avail.status)));
    out.Set("planned_start",
            JsonValue::String(avail.planned_start.ToString()));
    out.Set("planned_end", JsonValue::String(avail.planned_end.ToString()));
    out.Set("actual_start",
            JsonValue::String(avail.actual_start.ToString()));
    if (avail.actual_end.has_value()) {
      out.Set("actual_end", JsonValue::String(avail.actual_end->ToString()));
    }
    number("ship_class", avail.ship_class);
    number("rmc_id", avail.rmc_id);
    number("ship_age_years", avail.ship_age_years);
    number("avail_type", avail.avail_type);
    number("homeport", avail.homeport);
    number("prior_avail_count", avail.prior_avail_count);
    number("contract_value_musd", avail.contract_value_musd);
    number("crew_size", avail.crew_size);
    return out;
  }

  static JsonValue RccJson(const Rcc& rcc, bool with_avail_id) {
    JsonValue out = JsonValue::Object();
    out.Set("id", JsonValue::Number(static_cast<double>(rcc.id)));
    if (with_avail_id) {
      out.Set("avail_id",
              JsonValue::Number(static_cast<double>(rcc.avail_id)));
    }
    out.Set("type", JsonValue::String(RccTypeToCode(rcc.type)));
    out.Set("swlin", JsonValue::String(rcc.swlin.ToString()));
    out.Set("creation_date", JsonValue::String(rcc.creation_date.ToString()));
    if (rcc.settled_date.has_value()) {
      out.Set("settled_date", JsonValue::String(rcc.settled_date->ToString()));
    }
    out.Set("settled_amount", JsonValue::Number(rcc.settled_amount));
    return out;
  }

  Dataset fleet_;
};

// --- Tests. ---

TEST(JsonDifferentialTest, RandomTreesParseAndSerializeAsTheOracleDoes) {
  Rng rng(2301);
  Outcomes outcomes;
  for (int trial = 0; trial < 8000; ++trial) {
    const JsonValue tree = RandomTree(&rng, 0);
    ASSERT_TRUE(SameSerialize(tree));
    std::string text;
    WriteText(tree, &rng, &text);
    ASSERT_TRUE(SameParse(text, &outcomes));
    ASSERT_TRUE(SameParse(tree.Serialize(), &outcomes));
    const auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << Show(text);
    ASSERT_TRUE(SameSerialize(*parsed));
    const std::string raw = RandomString(&rng, 24);
    ASSERT_EQ(JsonQuote(raw), oracle::Quote(raw));
  }
  EXPECT_EQ(outcomes.rejected, 0u);
  EXPECT_EQ(outcomes.total(), 16000u);
}

TEST(JsonDifferentialTest, MutatedTreesAgreeWithTheOracle) {
  Rng rng(2302);
  Outcomes outcomes;
  for (int trial = 0; trial < 6000; ++trial) {
    std::string text;
    WriteText(RandomTree(&rng, 0), &rng, &text);
    for (int edits = 1 + static_cast<int>(rng.Next() % 2); edits > 0;
         --edits) {
      text = Mutate(text, &rng);
    }
    ASSERT_TRUE(SameParse(text, &outcomes));
  }
  EXPECT_GT(outcomes.ok, 300u);
  EXPECT_GT(outcomes.rejected, 3000u);
}

TEST(JsonDifferentialTest, WireLinesAndTheirMutationsAgreeWithTheOracle) {
  const WireLines lines(/*num_avails=*/12, /*mean_rccs_per_avail=*/30.0);
  Rng rng(2303);
  Outcomes outcomes;
  for (int trial = 0; trial < 6000; ++trial) {
    const std::string line = lines.AnyLine(&rng);
    ASSERT_TRUE(SameParse(line, &outcomes));
    ASSERT_TRUE(SameParse(Mutate(line, &rng), &outcomes));
  }
  EXPECT_GT(outcomes.ok, 6000u);
  EXPECT_GT(outcomes.rejected, 3000u);
}

TEST(JsonDifferentialTest, FullDetachedRequestsAndTheirTruncationsAgree) {
  // Whole RCC streams of the benchmark's size (~300 RCCs, ~40 KB), then
  // each cut at random offsets, as a short read would deliver it.
  const WireLines lines(/*num_avails=*/4, /*mean_rccs_per_avail=*/300.0);
  Rng rng(2304);
  Outcomes outcomes;
  for (std::size_t avail = 0; avail < lines.num_avails(); ++avail) {
    const std::string line = lines.Detached(avail, 1000, &rng);
    ASSERT_TRUE(SameParse(line, &outcomes));
    for (int cut = 0; cut < 40; ++cut) {
      ASSERT_TRUE(SameParse(
          std::string_view(line).substr(0, rng.Next() % line.size()),
          &outcomes));
    }
  }
  EXPECT_EQ(outcomes.ok, lines.num_avails());
  EXPECT_EQ(outcomes.total(), 41 * lines.num_avails());
}

TEST(JsonDifferentialTest, EdgeCasesAgreeWithTheOracle) {
  std::vector<std::string> cases = {
      "", " ", "null", "nul", "nulls", "true", "tru", "false", "fals",
      "0", "-0", "+1", ".5", "01", "1e", "-", "1e400", "-1e400", "1e-400",
      "1E+2", "1.", "1.e5", "0x10", "inf", "-inf", "nan", "NaN", "1-2",
      "[+1]", "[.5]", "[01]", "[1e]", "[-]", "[1e400]", "{\"a\":+1}",
      "{\"a\":.5}", "{\"a\":01}", "{\"a\":1e}", "{\"a\":-}", "{\"a\":1e400}",
      "\"\\u\"", "\"\\u1\"", "\"\\u12\"", "\"\\u123\"", "\"\\u12G4\"",
      "\"\\uD83D\\uDE00\"", "\"\\u0000\"", "\"\\u00e9\\u20AC\"", "\"\\",
      "\"abc\\", "\"\\\"", "\"\\q\"", "\"\x01\n\"", "\"\xff\"", "[1,]",
      "[,1]", "[1 2]", "{,}", "{\"a\"}", "{\"a\":}", "{\"a\" 1}", "{1:2}",
      "{\"a\":1,}", "{\"a\":1 \"b\":2}", "[1]]", "{}}", "[] x", "{} \t\r\n",
      "{\"a\":1,\"b\":2,\"a\":3}", "{\"a\":{\"x\":1},\"a\":[2]}",
      "{\"a\":1,\"a\":{\"b\":1,\"b\":2},\"c\":0}", "[{\"k\":1,\"k\":2}]",
  };
  // Nesting around the depth cap of 64: arrays, objects and a mix, with
  // an empty innermost value and with a scalar innermost value.
  for (const int levels : {63, 64, 65, 66}) {
    for (const char* inner : {"", "1", "[]", "{}"}) {
      std::string arrays, objects, mixed;
      for (int i = 0; i < levels; ++i) {
        arrays += "[";
        objects += "{\"k\":";
        mixed += (i % 2 == 0) ? "[" : "{\"k\":";
      }
      arrays += inner;
      objects += *inner == '\0' ? "0" : inner;
      mixed += *inner == '\0' ? "0" : inner;
      for (int i = levels - 1; i >= 0; --i) {
        arrays += "]";
        objects += "}";
        mixed += (i % 2 == 0) ? "]" : "}";
      }
      cases.push_back(arrays);
      cases.push_back(objects);
      cases.push_back(mixed);
    }
  }
  Outcomes outcomes;
  for (const std::string& text : cases) {
    ASSERT_TRUE(SameParse(text, &outcomes));
  }
  EXPECT_GT(outcomes.ok, 20u);
  EXPECT_GT(outcomes.rejected, 60u);
}

}  // namespace
}  // namespace domd

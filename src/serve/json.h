#ifndef DOMD_SERVE_JSON_H_
#define DOMD_SERVE_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace domd {

/// A minimal JSON document model for the serving wire format (one request
/// or response per newline-delimited line). Covers the full JSON grammar
/// except that numbers are always doubles (the wire format never needs
/// 64-bit-exact integers above 2^53). Object keys keep insertion order so
/// serialized responses are deterministic.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Appends to an array value.
  void Append(JsonValue value);
  /// Sets (or overwrites) an object member.
  void Set(std::string_view key, JsonValue value);

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member accessors with defaults, for lenient request parsing.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key,
                       const std::string& fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

  /// Serializes on one line (no trailing newline). Doubles that hold exact
  /// integers print without a decimal point; others use max round-trip
  /// precision, so a serialize/parse cycle is bit-exact.
  std::string Serialize() const;

  /// Parses a complete JSON document; trailing non-whitespace is an error.
  static StatusOr<JsonValue> Parse(std::string_view text);

 private:
  friend class JsonParser;  // builds each value where it lives.

  /// Appends the Serialize() bytes to `out`.
  void SerializeTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes a string for embedding in a JSON document (quotes included).
std::string JsonQuote(std::string_view text);

}  // namespace domd

#endif  // DOMD_SERVE_JSON_H_

// Tests for the wire codec's integer members: every integer the server
// reads from a JSON number is range-checked before it is cast, so an
// out-of-range value (1e300), a fraction (7.5) or a negative count is an
// INVALID_ARGUMENT rather than undefined behaviour or a silent truncation.

#include "serve/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace domd {
namespace {

constexpr const char* kDetachedRequest =
    R"({"avail": {"id": 1, "ship_id": 5, "status": "ongoing",)"
    R"( "planned_start": "2024-01-01", "planned_end": "2024-12-01",)"
    R"( "actual_start": "2024-01-10", "ship_class": 2, "rmc_id": 1,)"
    R"( "ship_age_years": 17.5, "avail_type": 0, "homeport": 2,)"
    R"( "prior_avail_count": 3, "contract_value_musd": 30.0,)"
    R"( "crew_size": 250}, "rccs": [{"id": 4, "avail_id": 1, "type": "G",)"
    R"( "swlin": "434-11-001", "creation_date": "2024-02-01",)"
    R"( "settled_date": "2024-03-15", "settled_amount": 150000.0}],)"
    R"( "t_star": 50.0, "top_k": 3})";

/// Values no integer member may take, whatever its type.
const std::vector<double> kNonIntegers = {1e300, -1e300, 7.5, -2.5};

JsonValue Parsed(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? *parsed : JsonValue();
}

/// `request` with member `key` of its object member `outer` (or of the
/// request itself when `outer` is empty) set to `value`. "rccs" edits the
/// first RCC.
JsonValue WithMember(JsonValue request, const std::string& outer,
                     const std::string& key, double value) {
  if (outer.empty()) {
    request.Set(key, JsonValue::Number(value));
    return request;
  }
  if (outer == "rccs") {
    JsonValue rccs = JsonValue::Array();
    const std::vector<JsonValue>& items = request.Find("rccs")->items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      JsonValue rcc = items[i];
      if (i == 0) rcc.Set(key, JsonValue::Number(value));
      rccs.Append(std::move(rcc));
    }
    request.Set("rccs", std::move(rccs));
    return request;
  }
  JsonValue object = *request.Find(outer);
  object.Set(key, JsonValue::Number(value));
  request.Set(outer, std::move(object));
  return request;
}

TEST(WireIntegerTest, ScoreRequestRejectsNonIntegralOrOutOfRangeMembers) {
  const JsonValue base = Parsed(kDetachedRequest);
  const auto control = ParseScoreRequest(base);
  ASSERT_TRUE(control.ok()) << control.status();
  EXPECT_EQ(control->top_k, 3u);

  struct Member {
    const char* outer;
    const char* key;
  };
  for (const Member& member :
       {Member{"avail", "id"}, Member{"avail", "ship_id"},
        Member{"avail", "ship_class"}, Member{"avail", "crew_size"},
        Member{"rccs", "id"}, Member{"rccs", "avail_id"},
        Member{"", "top_k"}}) {
    for (const double value : kNonIntegers) {
      const auto parsed =
          ParseScoreRequest(WithMember(base, member.outer, member.key, value));
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << member.outer << "." << member.key << " = " << value;
    }
  }
  // int fields hold 32 bits: a value past INT_MAX is out of range too.
  for (const char* key : {"ship_class", "crew_size"}) {
    EXPECT_EQ(ParseScoreRequest(WithMember(base, "avail", key, 3e9))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << key;
  }
  // A negative top_k is rejected, not clamped to 0.
  EXPECT_EQ(ParseScoreRequest(WithMember(base, "", "top_k", -1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Integral doubles are integers: 250.0 reads as 250.
  const auto integral =
      ParseScoreRequest(WithMember(base, "avail", "crew_size", 250.0));
  ASSERT_TRUE(integral.ok()) << integral.status();
  EXPECT_EQ(integral->avail.crew_size, 250);
}

TEST(WireIntegerTest, IngestMutationsRejectNonIntegralOrOutOfRangeMembers) {
  const JsonValue detached = Parsed(kDetachedRequest);
  JsonValue base = JsonValue::Object();
  base.Set("cmd", JsonValue::String("ingest"));
  JsonValue avails = JsonValue::Array();
  avails.Append(*detached.Find("avail"));
  base.Set("avails", std::move(avails));
  base.Set("rccs", *detached.Find("rccs"));
  const auto control = ParseIngestMutations(base);
  ASSERT_TRUE(control.ok()) << control.status();
  EXPECT_EQ(control->size(), 2u);

  for (const char* key : {"id", "ship_class", "crew_size"}) {
    for (const double value : kNonIntegers) {
      JsonValue avail = base.Find("avails")->items().front();
      avail.Set(key, JsonValue::Number(value));
      JsonValue request = base;
      JsonValue rows = JsonValue::Array();
      rows.Append(std::move(avail));
      request.Set("avails", std::move(rows));
      EXPECT_EQ(ParseIngestMutations(request).status().code(),
                StatusCode::kInvalidArgument)
          << "avail " << key << " = " << value;
    }
  }
  for (const char* key : {"id", "avail_id", "swlin"}) {
    for (const double value : kNonIntegers) {
      EXPECT_EQ(ParseIngestMutations(WithMember(base, "rccs", key, value))
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << "rcc " << key << " = " << value;
    }
  }
}

TEST(WireIntegerTest, PointRequestChecksAvailIdAndTopK) {
  const auto point = ParsePointRequest(
      Parsed(R"({"avail_id": 7.0, "t_star": 55, "top_k": 3.0})"));
  ASSERT_TRUE(point.ok()) << point.status();
  EXPECT_EQ(point->avail_id, 7);
  EXPECT_EQ(point->t_star, 55.0);
  EXPECT_EQ(point->top_k, 3u);

  const auto defaults = ParsePointRequest(Parsed(R"({"avail_id": -4})"));
  ASSERT_TRUE(defaults.ok()) << defaults.status();
  EXPECT_EQ(defaults->avail_id, -4);
  EXPECT_EQ(defaults->t_star, 100.0);
  EXPECT_EQ(defaults->top_k, 5u);

  for (const char* bad :
       {R"({"avail_id": 1e300})", R"({"avail_id": -1e19})",
        R"({"avail_id": 7.5})", R"({"avail_id": "7"})", R"({"t_star": 5})",
        R"({"avail_id": 7, "top_k": -1})", R"({"avail_id": 7, "top_k": 2.5})",
        R"({"avail_id": 7, "top_k": 1e300})",
        R"({"avail_id": 7, "top_k": "3"})"}) {
    EXPECT_EQ(ParsePointRequest(Parsed(bad)).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(WireIntegerTest, IntegerFromJsonAcceptsExactlyTheInt64Range) {
  // -2^63 is the smallest int64 and an exact double; 2^63 (which is also
  // what 9223372036854775807 parses to) is one past the largest.
  EXPECT_EQ(*IntegerFromJson(Parsed("-9223372036854775808"), "n"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(IntegerFromJson(Parsed("9223372036854775807"), "n").ok());
  EXPECT_FALSE(IntegerFromJson(Parsed("9223372036854775808"), "n").ok());
  EXPECT_EQ(*IntegerFromJson(Parsed("9007199254740992"), "n"),
            std::int64_t{9007199254740992});
  EXPECT_EQ(*IntegerFromJson(Parsed("-0.0"), "n"), 0);
  EXPECT_EQ(*IntegerFromJson(Parsed("12"), "n", 0, 12), 12);
  EXPECT_FALSE(IntegerFromJson(Parsed("13"), "n", 0, 12).ok());
  EXPECT_FALSE(IntegerFromJson(Parsed("-1"), "n", 0, 12).ok());
  EXPECT_FALSE(IntegerFromJson(Parsed("null"), "n").ok());

  const auto error = IntegerFromJson(Parsed("2.5"), "member \"top_k\"", 0, 9);
  EXPECT_EQ(error.status().message(),
            "member \"top_k\" must be an integer in [0, 9]");
  EXPECT_EQ(IntegerFromJson(Parsed("true"), "avail_ids[2]").status().message(),
            "avail_ids[2] must be a number");

  // An absent or null member falls back; a present one must be an integer.
  const JsonValue object = Parsed(R"({"a": null, "b": 3, "c": 3.5})");
  EXPECT_EQ(*IntegerMember(object, "missing", 9), 9);
  EXPECT_EQ(*IntegerMember(object, "a", 9), 9);
  EXPECT_EQ(*IntegerMember(object, "b", 9), 3);
  EXPECT_FALSE(IntegerMember(object, "c", 9).ok());
}

}  // namespace
}  // namespace domd

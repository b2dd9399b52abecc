#include "common/strings.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "common/rng.h"

namespace domd {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = StrSplit("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = StrSplit(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitEmptyInput) {
  const auto parts = StrSplit("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Strip) {
  EXPECT_EQ(StrStrip("  hi  "), "hi");
  EXPECT_EQ(StrStrip("\t\nx\r "), "x");
  EXPECT_EQ(StrStrip("   "), "");
  EXPECT_EQ(StrStrip("nochange"), "nochange");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StrStartsWith("G1-AVG", "G1"));
  EXPECT_FALSE(StrStartsWith("G1", "G1-AVG"));
  EXPECT_TRUE(StrStartsWith("anything", ""));
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(StrToLower("MiXeD123"), "mixed123");
}

TEST(StringsTest, Hex64WritesSixteenLowercaseDigits) {
  EXPECT_EQ(Hex64(0), "0000000000000000");
  EXPECT_EQ(Hex64(0xdeadbeef), "00000000deadbeef");
  EXPECT_EQ(Hex64(UINT64_MAX), "ffffffffffffffff");
  // The bytes printf's "%016llx" writes: the form every epoch, chain,
  // checksum and log header already on disk or on the wire was written in.
  Rng rng(16);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t value = rng.Next() >> (i % 64);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    EXPECT_EQ(Hex64(value), buf);
  }
}

TEST(ParseDoubleTest, ParsesPlainAndExponentForms) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("-12.5"), -12.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("+3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2.5E-2"), -0.025);
  EXPECT_DOUBLE_EQ(*ParseDouble(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("5."), 5.0);
}

TEST(ParseDoubleTest, ParsesNonFiniteSpellings) {
  EXPECT_TRUE(std::isnan(*ParseDouble("nan")));
  EXPECT_TRUE(std::isnan(*ParseDouble("NaN")));
  EXPECT_TRUE(std::isinf(*ParseDouble("inf")));
  EXPECT_TRUE(std::isinf(*ParseDouble("-INF")));
  EXPECT_LT(*ParseDouble("-inf"), 0.0);
}

TEST(ParseDoubleTest, RejectsPartialParsesStrtodWouldAccept) {
  // Each of these parses a prefix under bare strtod and silently drops the
  // tail — the bug class this helper exists to close.
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("5 days").ok());
  EXPECT_FALSE(ParseDouble("7x").ok());
  EXPECT_FALSE(ParseDouble("1e").ok());
  EXPECT_FALSE(ParseDouble("0x10").ok());
}

TEST(ParseDoubleTest, RejectsEmptyJunkAndWhitespace) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("+").ok());
  EXPECT_FALSE(ParseDouble("-").ok());
  EXPECT_FALSE(ParseDouble("+-1").ok());
  EXPECT_FALSE(ParseDouble("++1").ok());
  EXPECT_FALSE(ParseDouble(" 1").ok());  // strtod would skip the space.
  EXPECT_FALSE(ParseDouble("1 ").ok());
  EXPECT_FALSE(ParseDouble("days").ok());
}

TEST(ParseDoubleTest, RejectsOutOfRangeInsteadOfSaturating) {
  // strtod returns ±HUGE_VAL and sets errno; the checked parse refuses.
  EXPECT_FALSE(ParseDouble("1e400").ok());
  EXPECT_FALSE(ParseDouble("-1e400").ok());
  // The extremes of the representable range still parse.
  EXPECT_DOUBLE_EQ(*ParseDouble("1.7976931348623157e308"),
                   std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(*ParseDouble("5e-324"),
                   std::numeric_limits<double>::denorm_min());
}

TEST(ParseDoubleTest, PropertyRoundTripsPrintedDoublesBitExactly) {
  // Any finite double printed with %.17g must parse back to the same bits;
  // random signs, exponents, and mantissas probe the full range.
  Rng rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    const auto bits = rng.Next();
    double value = std::bit_cast<double>(bits);
    if (std::isnan(value)) value = 0.5;  // NaN payloads don't round-trip.
    if (std::isinf(value)) value = -1e308;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    const auto parsed = ParseDouble(buf);
    ASSERT_TRUE(parsed.ok()) << buf;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
              std::bit_cast<std::uint64_t>(value))
        << buf;
  }
}

TEST(ParseDoubleTest, PropertyAgreesWithStrtodOnFullValidStrings) {
  // On inputs strtod fully consumes, the checked parse must agree exactly.
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    // Mantissa in ±[1, 10) keeps %.12g in fixed notation, so appending the
    // exponent below always yields one well-formed number.
    const double sign = (rng.Next() & 1) != 0 ? -1.0 : 1.0;
    const double mantissa = sign * (1.0 + 9.0 * rng.Uniform());
    const int exponent =
        static_cast<int>(rng.Next() % 613) - 306;  // [-306, 306]
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12ge%d", mantissa, exponent);
    char* end = nullptr;
    const double reference = std::strtod(buf, &end);
    ASSERT_EQ(end, buf + std::string(buf).size()) << buf;
    const auto parsed = ParseDouble(buf);
    ASSERT_TRUE(parsed.ok()) << buf;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
              std::bit_cast<std::uint64_t>(reference))
        << buf;
  }
}

TEST(ReadFileToStringTest, ReadsEveryByteOfAFile) {
  const std::string path = ::testing::TempDir() + "/domd_read_file_test.bin";
  Rng rng(4);
  for (const std::size_t size : {0u, 1u, 4095u, 4096u, 4097u, 300000u}) {
    std::string bytes;
    for (std::size_t i = 0; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.Next()));  // NULs included.
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bytes;
    }
    const auto read = ReadFileToString(path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, bytes) << size;
  }
  std::remove(path.c_str());
}

TEST(ReadFileToStringTest, MissingFileAndDirectoryAreIoErrors) {
  EXPECT_EQ(ReadFileToString("/nonexistent/dir/file").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadFileToString(::testing::TempDir()).status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace domd

#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace domd {
namespace {

const std::vector<FlagSpec>& Specs() {
  static const std::vector<FlagSpec> specs = {
      StringFlag("dir"), IntFlag("port", 0, 65535),
      IntFlag("threads", 0, 1024), IntFlag("max-queue", 0, 1 << 30),
      DoubleFlag("window")};
  return specs;
}

StatusOr<Flags> ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags::Parse(static_cast<int>(args.size()), args.data(), 1, Specs());
}

/// The failure message of parsing `args`, or "" when they parse.
std::string ErrorOf(std::vector<const char*> args) {
  const auto flags = ParseArgs(std::move(args));
  if (flags.ok()) return "";
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  return flags.status().message();
}

TEST(FlagsTest, ReadsDeclaredFlagsAndFallsBackWhenAbsent) {
  const auto flags = ParseArgs({"--dir", "fleet", "--port", "0", "--threads",
                                "0", "--window", "12.5"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_TRUE(flags->Has("dir"));
  EXPECT_EQ(flags->String("dir"), "fleet");
  EXPECT_EQ(flags->Int("port", 7433), 0);  // 0 = ephemeral, not "absent".
  EXPECT_EQ(flags->Int("threads", 4), 0);  // 0 = all cores.
  EXPECT_EQ(flags->Double("window", 10), 12.5);
  EXPECT_FALSE(flags->Has("max-queue"));
  EXPECT_EQ(flags->Int("max-queue", 256), 256);
  EXPECT_EQ(flags->String("missing", "fallback"), "fallback");
}

TEST(FlagsTest, ARepeatedFlagKeepsItsLastValue) {
  const auto flags = ParseArgs({"--port", "1", "--port", "2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->Int("port", 0), 2);
}

TEST(FlagsTest, RejectsUndeclaredFlagsAndStrayArguments) {
  EXPECT_EQ(ErrorOf({"--dir", "d", "--no-such-flag", "7"}),
            "unknown flag --no-such-flag");
  EXPECT_EQ(ErrorOf({"--quantized-hist", "1"}),
            "unknown flag --quantized-hist");
  EXPECT_EQ(ErrorOf({"fleet"}), "unexpected argument \"fleet\"");
  EXPECT_EQ(ErrorOf({"-port", "1"}), "unexpected argument \"-port\"");
}

TEST(FlagsTest, RejectsAFlagWithoutAValue) {
  EXPECT_EQ(ErrorOf({"--dir", "d", "--port"}), "flag --port needs a value");
}

TEST(FlagsTest, RejectsAMissingRequiredFlag) {
  const std::vector<FlagSpec> specs = {Required(StringFlag("bundle")),
                                       IntFlag("port", 0, 65535)};
  std::vector<const char*> argv = {"prog", "--port", "0"};
  const auto missing =
      Flags::Parse(static_cast<int>(argv.size()), argv.data(), 1, specs);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(), "--bundle is required");
  argv.push_back("--bundle");
  argv.push_back("b");
  EXPECT_TRUE(
      Flags::Parse(static_cast<int>(argv.size()), argv.data(), 1, specs).ok());
}

TEST(FlagsTest, RejectsNumbersThatDoNotParse) {
  EXPECT_EQ(ErrorOf({"--threads", "abc"}),
            "--threads: \"abc\" is not an integer");
  EXPECT_EQ(ErrorOf({"--port", "80x"}), "--port: \"80x\" is not an integer");
  EXPECT_EQ(ErrorOf({"--port", ""}), "--port: \"\" is not an integer");
  EXPECT_EQ(ErrorOf({"--port", "1.5"}), "--port: \"1.5\" is not an integer");
  EXPECT_EQ(ErrorOf({"--port", "99999999999999999999"}),
            "--port: \"99999999999999999999\" is not an integer");
  EXPECT_EQ(ErrorOf({"--window", "ten"}),
            "--window: \"ten\" is not a finite number");
  EXPECT_EQ(ErrorOf({"--window", "inf"}),
            "--window: \"inf\" is not a finite number");
  EXPECT_EQ(ErrorOf({"--window", "nan"}),
            "--window: \"nan\" is not a finite number");
}

TEST(FlagsTest, RejectsNumbersOutOfRange) {
  EXPECT_EQ(ErrorOf({"--port", "70000"}),
            "--port: 70000 is out of range [0, 65535]");
  EXPECT_EQ(ErrorOf({"--max-queue", "-1"}),
            "--max-queue: -1 is out of range [0, 1073741824]");
  EXPECT_EQ(ErrorOf({"--threads", "-3"}),
            "--threads: -3 is out of range [0, 1024]");
  // The bounds themselves are in range.
  EXPECT_EQ(ErrorOf({"--port", "65535", "--threads", "1024"}), "");
}

}  // namespace
}  // namespace domd

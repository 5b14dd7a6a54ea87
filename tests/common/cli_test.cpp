#include "dsjoin/common/cli.hpp"

#include <gtest/gtest.h>

namespace dsjoin::common {
namespace {

CliFlags make_flags() {
  CliFlags flags("test program");
  flags.add_int("count", 10, "a count")
      .add_double("rate", 2.5, "a rate")
      .add_string("name", "default", "a name")
      .add_bool("verbose", false, "verbosity");
  return flags;
}

TEST(CliFlags, DefaultsApply) {
  auto flags = make_flags();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("count"), 10);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
  EXPECT_EQ(flags.get_string("name"), "default");
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(CliFlags, EqualsSyntax) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--count=42", "--rate=0.125", "--name=abc",
                        "--verbose=true"};
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 0.125);
  EXPECT_EQ(flags.get_string("name"), "abc");
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(CliFlags, SpaceSyntax) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--count", "-7", "--name", "xyz"};
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.get_int("count"), -7);
  EXPECT_EQ(flags.get_string("name"), "xyz");
}

TEST(CliFlags, BareBoolFlag) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(CliFlags, UnknownFlagFails) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--bogus=1"};
  auto status = flags.parse(2, argv);
  ASSERT_FALSE(status);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(CliFlags, ParseFailurePrintsTheReason) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--workers", "2"};
  testing::internal::CaptureStderr();
  const auto status = flags.parse(3, argv);
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_FALSE(status);
  EXPECT_EQ(err, "error: unknown flag '--workers'\n");
}

TEST(CliFlags, HelpPrintsNoError) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStderr();
  testing::internal::CaptureStdout();
  const auto status = flags.parse(2, argv);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(out.find("--count"), std::string::npos);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(CliFlags, BadIntegerFails) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, BadDoubleFails) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--rate=fast"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, BadBoolFails) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--verbose=maybe"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, MissingValueFails) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, PositionalArgumentFails) {
  auto flags = make_flags();
  const char* argv[] = {"prog", "stray"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, UsageListsAllFlags) {
  auto flags = make_flags();
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("--rate"), std::string::npos);
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("test program"), std::string::npos);
}

}  // namespace
}  // namespace dsjoin::common

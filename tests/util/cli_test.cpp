#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace tt {
namespace {

Cli make_cli() {
  Cli cli("test");
  cli.add_flag("verbose", false, "chatty");
  cli.add_int("points", 100, "n");
  cli.add_double("theta", 0.5, "opening angle");
  cli.add_string("algo", "pc", "benchmark");
  return cli;
}

TEST(Cli, Defaults) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  EXPECT_FALSE(cli.get_flag("verbose"));
  EXPECT_EQ(cli.get_int("points"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("theta"), 0.5);
  EXPECT_EQ(cli.get_string("algo"), "pc");
}

TEST(Cli, EqualsSyntax) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--points=42", "--theta=0.25",
                        "--algo=bh", "--verbose"};
  EXPECT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("points"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("theta"), 0.25);
  EXPECT_EQ(cli.get_string("algo"), "bh");
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, SpaceSyntax) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--points", "7"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("points"), 7);
}

TEST(Cli, NegatedFlag) {
  Cli cli("t");
  cli.add_flag("sorted", true, "x");
  const char* argv[] = {"prog", "--no-sorted"};
  EXPECT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(cli.get_flag("sorted"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

// The unknown-flag error enumerates every registered flag (the
// variant_from_name pattern), so a typo is self-diagnosing.
TEST(Cli, UnknownFlagErrorListsValidFlags) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--bogus=1"};
  try {
    cli.parse(2, argv);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--bogus"), std::string::npos);
    EXPECT_NE(msg.find("--algo"), std::string::npos);
    EXPECT_NE(msg.find("--points"), std::string::npos);
    EXPECT_NE(msg.find("--theta"), std::string::npos);
    EXPECT_NE(msg.find("--verbose"), std::string::npos);
  }
}

TEST(Cli, BadIntThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--points=abc"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, CountRejectsValuesBelowOne) {
  for (const char* arg : {"--points=-5", "--points=0"}) {
    Cli cli = make_cli();
    const char* argv[] = {"prog", arg};
    ASSERT_TRUE(cli.parse(2, argv));
    try {
      (void)cli.get_count("points");
      FAIL() << "expected std::invalid_argument for " << arg;
    } catch (const std::invalid_argument& e) {
      const std::string want = std::string("--points must be >= 1 (got ") +
                               (arg + 9) + ")";
      EXPECT_EQ(e.what(), want);
    }
  }
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--points=3"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_count("points"), 3u);
  EXPECT_THROW((void)cli.get_count("theta"), std::logic_error);
}

TEST(Cli, MissingValueThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--points"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_FALSE(cli.parse(2, argv));
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("--points"), std::string::npos);
}

TEST(Cli, PositionalRejected) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, WrongTypeAccessIsLogicError) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW((void)cli.get_int("verbose"), std::logic_error);
  EXPECT_THROW((void)cli.get_flag("points"), std::logic_error);
}

}  // namespace
}  // namespace tt

#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

namespace pulse::util {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

TEST(Cli, DefaultsApplyWithoutArgs) {
  CliParser cli("test");
  cli.add_flag("runs", "100", "number of runs");
  const auto args = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("runs"), 100);
}

TEST(Cli, EqualsSyntax) {
  CliParser cli("test");
  cli.add_flag("seed", "1", "seed");
  const auto args = argv_of({"prog", "--seed=42"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_int("seed"), 42);
}

TEST(Cli, SpaceSyntax) {
  CliParser cli("test");
  cli.add_flag("policy", "pulse", "policy name");
  const auto args = argv_of({"prog", "--policy", "wild"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_EQ(cli.get_string("policy"), "wild");
}

TEST(Cli, SwitchDefaultsFalse) {
  CliParser cli("test");
  cli.add_switch("verbose", "log more");
  const auto args = argv_of({"prog"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, SwitchSetsTrue) {
  CliParser cli("test");
  cli.add_switch("verbose", "log more");
  const auto args = argv_of({"prog", "--verbose"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, UnknownFlagFails) {
  CliParser cli("test");
  const auto args = argv_of({"prog", "--bogus=1"});
  EXPECT_FALSE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_NE(cli.error().find("bogus"), std::string::npos);
}

TEST(Cli, MissingValueFails) {
  CliParser cli("test");
  cli.add_flag("n", "1", "count");
  const auto args = argv_of({"prog", "--n"});
  EXPECT_FALSE(cli.parse(static_cast<int>(args.size()), args.data()));
}

TEST(Cli, HelpRequested) {
  CliParser cli("test");
  const auto args = argv_of({"prog", "--help"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_TRUE(cli.help_requested());
}

TEST(Cli, PositionalArgsCollected) {
  CliParser cli("test");
  cli.add_flag("x", "0", "x");
  const auto args = argv_of({"prog", "input.csv", "--x=1", "more"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.csv");
}

TEST(Cli, DoubleParsing) {
  CliParser cli("test");
  cli.add_flag("threshold", "0.1", "KM_T");
  const auto args = argv_of({"prog", "--threshold=0.15"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("threshold"), 0.15);
}

// std::stod reads "nan" and "inf" whole; no flag of the programs means
// either (a NaN --capacity-mb used to evict every kept container).
TEST(Cli, DoubleRejectsNonFiniteValues) {
  CliParser cli("test");
  cli.add_flag("capacity-mb", "0", "MB");
  const char* const values[] = {"nan", "NAN", "-nan", "nan(0x1)", "inf", "-inf", "INF",
                                "infinity", "-Infinity"};
  for (const char* value : values) {
    const std::string flag = std::string("--capacity-mb=") + value;
    const auto args = argv_of({"prog", flag.c_str()});
    ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
    EXPECT_THROW((void)cli.get_double("capacity-mb"), std::invalid_argument) << value;
  }
  const auto args = argv_of({"prog", "--capacity-mb=-5"});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("capacity-mb"), -5.0);  // finite: the run frame decides
}

// std::stoll/std::stod stop at the first character they cannot read: the
// getters must not turn --days=3x into 3 or --runs=2.5 into 2.
TEST(Cli, NumericValuesMustParseWhole) {
  CliParser cli("test");
  for (const char* flag : {"days", "runs", "n", "huge", "rate", "x", "big", "empty"}) {
    cli.add_flag(flag, "1", "value");
  }
  const auto args = argv_of({"prog", "--days=3x", "--runs=2.5", "--n=7 ",
                             "--huge=99999999999999999999", "--rate=0.5.1", "--x=1.5 ",
                             "--big=1e999", "--empty="});
  ASSERT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
  for (const char* flag : {"days", "runs", "n", "huge", "empty"}) {
    EXPECT_THROW((void)cli.get_int(flag), std::invalid_argument) << flag;
  }
  for (const char* flag : {"rate", "x", "big", "empty"}) {
    EXPECT_THROW((void)cli.get_double(flag), std::invalid_argument) << flag;
  }
  EXPECT_DOUBLE_EQ(cli.get_double("runs"), 2.5);
  // The error names the flag and its value, also where std::stoll throws.
  for (const auto& [flag, value] :
       {std::pair{"days", "3x"}, std::pair{"huge", "99999999999999999999"}}) {
    try {
      (void)cli.get_int(flag);
      ADD_FAILURE() << "--" << flag << "=" << value << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("--") + flag), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  }
}

TEST(Cli, UnregisteredGetterThrows) {
  CliParser cli("test");
  EXPECT_THROW(cli.get_string("nope"), std::invalid_argument);
}

TEST(Cli, UsageListsFlags) {
  CliParser cli("my program");
  cli.add_flag("runs", "100", "ensemble size");
  cli.add_switch("fast", "fewer runs");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--runs"), std::string::npos);
  EXPECT_NE(usage.find("--fast"), std::string::npos);
  EXPECT_NE(usage.find("ensemble size"), std::string::npos);
}

}  // namespace
}  // namespace pulse::util

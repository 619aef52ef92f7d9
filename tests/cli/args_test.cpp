#include "cli/args.hpp"

#include <gtest/gtest.h>

namespace ivt::cli {
namespace {

Args parse(std::initializer_list<const char*> argv_list) {
  std::vector<const char*> argv{"ivt"};
  argv.insert(argv.end(), argv_list.begin(), argv_list.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, KeyValueForms) {
  const Args args = parse({"--a", "1", "--b=2"});
  EXPECT_EQ(args.get("a"), "1");
  EXPECT_EQ(args.get("b"), "2");
}

TEST(ArgsTest, BareFlag) {
  const Args args = parse({"--flag", "--x", "7"});
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("flag"), "");
  EXPECT_EQ(args.get("x"), "7");
}

TEST(ArgsTest, FlagFollowedByOption) {
  const Args args = parse({"--flag", "--x", "7"});
  EXPECT_EQ(args.get_int("x", 0), 7);
}

TEST(ArgsTest, Positional) {
  const Args args = parse({"pos1", "--k", "v", "pos2"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(ArgsTest, RequireThrows) {
  const Args args = parse({});
  EXPECT_THROW((void)args.require("missing"), std::invalid_argument);
}

TEST(ArgsTest, Defaults) {
  const Args args = parse({});
  EXPECT_EQ(args.get_or("x", "d"), "d");
  EXPECT_DOUBLE_EQ(args.get_double("y", 1.5), 1.5);
  EXPECT_EQ(args.get_int("z", -3), -3);
}

TEST(ArgsTest, NumericParsing) {
  const Args args = parse({"--f", "2.5", "--i", "42"});
  EXPECT_DOUBLE_EQ(args.get_double("f", 0), 2.5);
  EXPECT_EQ(args.get_int("i", 0), 42);
}

TEST(ArgsTest, BadNumberThrows) {
  const Args args = parse({"--f", "abc"});
  EXPECT_THROW((void)args.get_double("f", 0), std::invalid_argument);
}

TEST(ArgsTest, NumbersMustParseWhole) {
  struct Case {
    const char* value;
    bool number_ok;  ///< get_double accepts it
    bool int_ok;     ///< get_int accepts it
    bool count_ok;   ///< get_count (max 100) accepts it
  };
  const Case cases[] = {
      {"42", true, true, true},     {"0", true, true, true},
      {"100", true, true, true},    {"101", true, true, false},
      {"-1", true, true, false},    {"-0.5", true, false, false},
      {"0.1x", false, false, false}, {"1e3", true, false, false},
      {"12 ", false, false, false}, {"", false, false, false},
      {"abc", false, false, false}, {"7,", false, false, false},
      {"99999999999999999999", true, false, false},
  };
  for (const Case& c : cases) {
    const Args args = parse({"--k", c.value});
    if (c.number_ok) {
      EXPECT_NO_THROW((void)args.get_double("k", 0)) << "'" << c.value << "'";
    } else {
      EXPECT_THROW((void)args.get_double("k", 0), std::invalid_argument)
          << "'" << c.value << "'";
    }
    if (c.int_ok) {
      EXPECT_NO_THROW((void)args.get_int("k", 0)) << "'" << c.value << "'";
    } else {
      EXPECT_THROW((void)args.get_int("k", 0), std::invalid_argument)
          << "'" << c.value << "'";
    }
    if (c.count_ok) {
      EXPECT_NO_THROW((void)args.get_count("k", 0, 100))
          << "'" << c.value << "'";
    } else {
      EXPECT_THROW((void)args.get_count("k", 0, 100), std::invalid_argument)
          << "'" << c.value << "'";
    }
  }
  EXPECT_EQ(parse({}).get_count("k", 7), 7U);
  EXPECT_EQ(parse({"--k", "12"}).get_count("k", 7), 12U);
}

TEST(ArgsTest, ListParsing) {
  const Args args = parse({"--signals", "a,b,c"});
  EXPECT_EQ(args.get_list("signals"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(parse({}).get_list("signals").empty());
}

TEST(ArgsTest, SingleItemList) {
  const Args args = parse({"--signals", "only"});
  EXPECT_EQ(args.get_list("signals"), (std::vector<std::string>{"only"}));
}

TEST(ArgsTest, UnusedTracking) {
  const Args args = parse({"--used", "1", "--typo", "2"});
  (void)args.get("used");
  EXPECT_EQ(args.unused(), (std::vector<std::string>{"typo"}));
}

}  // namespace
}  // namespace ivt::cli

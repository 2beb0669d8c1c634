#include "util/flags.h"

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace gsgrow {
namespace {

Flags ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(s.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

// Reads --name through the checked accessor, starting from `init`; the
// test fails if the read is rejected.
template <typename T>
T Read(const Flags& f, const std::string& name, T init) {
  T value = init;
  Status st = f.Get(name, &value);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return value;
}

TEST(Flags, EqualsForm) {
  Flags f = ParseArgs({"--min_sup=5"});
  EXPECT_EQ(Read<int64_t>(f, "min_sup", 0), 5);
}

TEST(Flags, SpaceForm) {
  Flags f = ParseArgs({"--name", "gazelle"});
  EXPECT_EQ(f.GetString("name", ""), "gazelle");
}

TEST(Flags, BareBooleanSwitch) {
  Flags f = ParseArgs({"--verbose"});
  EXPECT_TRUE(Read(f, "verbose", false));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(Read(ParseArgs({"--x=yes"}), "x", false));
  EXPECT_TRUE(Read(ParseArgs({"--x=on"}), "x", false));
  EXPECT_TRUE(Read(ParseArgs({"--x=1"}), "x", false));
  EXPECT_FALSE(Read(ParseArgs({"--x=no"}), "x", true));
  EXPECT_FALSE(Read(ParseArgs({"--x=0"}), "x", true));
  EXPECT_FALSE(Read(ParseArgs({"--x=off"}), "x", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  Flags f = ParseArgs({});
  EXPECT_EQ(Read<int64_t>(f, "k", 7), 7);
  EXPECT_EQ(f.GetString("s", "d"), "d");
  EXPECT_DOUBLE_EQ(Read(f, "d", 1.5), 1.5);
  EXPECT_TRUE(Read(f, "b", true));
}

// A value that does not parse, or lies outside the allowed range, is an
// error naming the flag and leaves the default in place — never a silent
// fall-back.
TEST(Flags, DefaultWhenUnparsable) {
  const auto rejects = [](const std::vector<std::string>& args, auto init,
                          auto min, auto max) {
    Flags f = ParseArgs(args);
    auto value = init;
    Status st = f.Get("k", &value, min, max);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << args[0];
    EXPECT_NE(st.message().find("--k"), std::string::npos) << st.message();
    EXPECT_EQ(value, init) << args[0];
  };
  constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  rejects({"--k=abc"}, int64_t{9}, int64_t{0}, kIntMax);
  rejects({"--k=-1"}, int64_t{9}, int64_t{0}, kIntMax);
  rejects({"--k=99999999999999999999"}, int64_t{9}, int64_t{0}, kIntMax);
  rejects({"--k=17"}, int64_t{9}, int64_t{0}, int64_t{16});
  rejects({"--k=abc"}, 1.5, 0.0, kDoubleMax);
  rejects({"--k=nan"}, 1.5, 0.0, kDoubleMax);
  rejects({"--k=-1"}, 1.5, 0.0, kDoubleMax);
  rejects({"--k=maybe"}, false, false, true);

  Flags f = ParseArgs({"--k=-5"});
  int64_t value = 0;
  EXPECT_EQ(f.Get("k", &value, int64_t{1}).message(),
            "--k must be an integer >= 1, got '-5'");
}

TEST(Flags, Positional) {
  Flags f = ParseArgs({"input.txt", "--k=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(Flags, DoubleValues) {
  Flags f = ParseArgs({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(Read(f, "scale", 1.0), 0.25);
}

TEST(EnvDouble, ReadsAndDefaults) {
  double value = 1.0;
  ::setenv("GSGROW_TEST_ENV_DOUBLE", "0.5", 1);
  EXPECT_TRUE(EnvDouble("GSGROW_TEST_ENV_DOUBLE", &value).ok());
  EXPECT_DOUBLE_EQ(value, 0.5);
  ::unsetenv("GSGROW_TEST_ENV_DOUBLE");
  value = 1.0;
  EXPECT_TRUE(EnvDouble("GSGROW_TEST_ENV_DOUBLE", &value).ok());
  EXPECT_DOUBLE_EQ(value, 1.0);
  // A malformed or out-of-range value is an error naming the variable, and
  // leaves the default in place.
  for (const char* bad : {"junk", "-5", "nan"}) {
    ::setenv("GSGROW_TEST_ENV_DOUBLE", bad, 1);
    value = 2.0;
    const Status status =
        EnvDouble("GSGROW_TEST_ENV_DOUBLE", &value, 0.1, 10.0);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(status.message().starts_with("GSGROW_TEST_ENV_DOUBLE"))
        << status.message();
    EXPECT_DOUBLE_EQ(value, 2.0);
  }
  ::unsetenv("GSGROW_TEST_ENV_DOUBLE");
}

// The parse-and-bounds step on its own, as the serve protocol uses it:
// unsigned values over the full range, bounds inclusive, and a rejected
// value leaves the target as it was.
TEST(Flags, ParseInRangeChecksTypeAndBounds) {
  uint64_t n = 7;
  EXPECT_TRUE(ParseInRange<uint64_t>("18446744073709551615", &n, 0,
                                     std::numeric_limits<uint64_t>::max()));
  EXPECT_EQ(n, std::numeric_limits<uint64_t>::max());
  n = 7;
  for (const char* bad : {"18446744073709551616", "-1", "+1", "", "1x"}) {
    EXPECT_FALSE(ParseInRange<uint64_t>(bad, &n, 0, 100)) << bad;
    EXPECT_EQ(n, 7u) << bad;
  }
  EXPECT_TRUE(ParseInRange<uint64_t>("100", &n, 1, 100));
  EXPECT_FALSE(ParseInRange<uint64_t>("0", &n, 1, 100));
  double d = 1.0;
  EXPECT_FALSE(ParseInRange(std::string_view("nan"), &d,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(ParseInRange(std::string_view("0"), &d,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(ParseInRange(std::string_view("inf"), &d,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity()));
  EXPECT_EQ(d, std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace gsgrow

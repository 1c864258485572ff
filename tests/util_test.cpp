// Tests for src/util: check macros, RNG determinism and distribution,
// CLI parsing, table formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ou = optimus::util;

TEST(Check, PassingConditionDoesNothing) { OPT_CHECK(1 + 1 == 2, "never shown"); }

TEST(Check, FailingConditionThrowsWithMessage) {
  try {
    OPT_CHECK(false, "value was " << 42);
    FAIL() << "expected CheckError";
  } catch (const ou::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value was 42"), std::string::npos) << what;
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos) << what;
  }
}

TEST(Check, MessagelessFormSupported) {
  EXPECT_THROW(OPT_CHECK(false), ou::CheckError);
}

TEST(Rng, DeterministicForSameSeed) {
  ou::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  ou::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInRange) {
  ou::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllBuckets) {
  ou::Rng rng(11);
  std::array<int, 7> counts{};
  for (int i = 0; i < 7000; ++i) counts[rng.uniform_index(7)] += 1;
  for (int c : counts) EXPECT_GT(c, 700);  // each ~1000 expected
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  ou::Rng rng(5);
  const int n = 20000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(CounterRng, PureFunctionOfCoordinates) {
  ou::CounterRng a(42), b(42);
  EXPECT_EQ(a.u64_at(3, 99), b.u64_at(3, 99));
  // Order of evaluation is irrelevant.
  const auto x = a.u64_at(0, 0);
  (void)a.u64_at(7, 7);
  EXPECT_EQ(a.u64_at(0, 0), x);
}

TEST(CounterRng, DistinctCoordinatesDistinctValues) {
  ou::CounterRng rng(9);
  // Collisions are possible in principle but astronomically unlikely in 1e4 draws.
  std::set<std::uint64_t> seen;
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 1000; ++i) seen.insert(rng.u64_at(s, i));
  }
  EXPECT_EQ(seen.size(), 10u * 1000u);
}

TEST(CounterRng, SymmetricRangeRespected) {
  ou::CounterRng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.symmetric_at(0, i, 0.25);
    EXPECT_GE(v, -0.25);
    EXPECT_LT(v, 0.25);
  }
}

TEST(CounterRng, NormalAtMomentsRoughlyStandard) {
  ou::CounterRng rng(3);
  const int n = 20000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal_at(0, i);
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.06);
}

namespace {

ou::Cli make_cli(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return ou::Cli(static_cast<int>(ptrs.size()), ptrs.data());
}

}  // namespace

TEST(Cli, ParsesEqualsAndSpaceForms) {
  auto cli = make_cli({"prog", "--steps=12", "--lr", "0.5", "--name=abc"});
  EXPECT_EQ(cli.get_int("steps", 0), 12);
  EXPECT_DOUBLE_EQ(cli.get_double("lr", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
  cli.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  auto cli = make_cli({"prog"});
  EXPECT_EQ(cli.get_int("steps", 7), 7);
  EXPECT_EQ(cli.get_string("mode", "x"), "x");
  EXPECT_FALSE(cli.get_bool("verbose", false));
  cli.finish();
}

TEST(Cli, BareBooleanFlag) {
  auto cli = make_cli({"prog", "--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  cli.finish();
}

// A bad command line ends the program with the usage line on stderr and
// exit status 2, never an uncaught exception.
TEST(Cli, UnknownFlagRejectedByFinish) {
  auto cli = make_cli({"prog", "--oops=1"});
  cli.get_int("steps", 7);
  EXPECT_EXIT(cli.finish(), ::testing::ExitedWithCode(2),
              "unknown flag --oops=1\nusage: prog \\[--steps=7\\]");
}

TEST(Cli, NonFlagArgumentRejected) {
  EXPECT_EXIT(make_cli({"prog", "positional"}), ::testing::ExitedWithCode(2),
              "expected --flag, got 'positional'\nusage: prog");
}

TEST(Cli, MalformedNumberExitsWithUsage) {
  EXPECT_EXIT(make_cli({"prog", "--steps=12x"}).get_int("steps", 7),
              ::testing::ExitedWithCode(2), "--steps expects an integer, got '12x'\nusage: prog");
  EXPECT_EXIT(make_cli({"prog", "--lr", "fast"}).get_double("lr", 0.5),
              ::testing::ExitedWithCode(2), "--lr expects a number, got 'fast'\nusage: prog");
  EXPECT_EXIT(make_cli({"prog", "--steps=99999999999"}).get_int("steps", 7),
              ::testing::ExitedWithCode(2), "--steps must be in");
}

TEST(Cli, BelowMinimumExitsWithUsage) {
  auto cli = make_cli({"prog", "--steps=-3"});
  EXPECT_EXIT(cli.get_int("steps", 80, /*min_value=*/1), ::testing::ExitedWithCode(2),
              "--steps must be in \\[1, 2147483647\\], got -3\nusage: prog");
  EXPECT_EQ(make_cli({"prog", "--steps=1"}).get_int("steps", 80, /*min_value=*/1), 1);
}

TEST(Cli, HelpPrintsUsageOfEveryFlagAndExits) {
  auto cli = make_cli({"prog", "--help"});
  cli.get_int("steps", 80);
  cli.get_double("lr", 0.003);
  cli.get_string("out", "");
  EXPECT_EXIT(cli.finish(), ::testing::ExitedWithCode(2),
              "^usage: prog \\[--steps=80\\] \\[--lr=0.003\\] \\[--out=\"\"\\]\n$");
}

TEST(Table, AlignsColumnsAndCountsRows) {
  ou::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "10000"});
  const std::string s = t.to_string();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("10000"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  ou::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ou::CheckError);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(ou::Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(ou::Table::fmt(static_cast<long long>(42)), "42");
}

TEST(Logging, ParseLevelRoundTrip) {
  EXPECT_EQ(ou::parse_log_level("debug"), ou::LogLevel::Debug);
  EXPECT_EQ(ou::parse_log_level("warn"), ou::LogLevel::Warn);
  EXPECT_THROW(ou::parse_log_level("loud"), ou::CheckError);
}

TEST(Logging, LevelFilterIsSettable) {
  const auto prior = ou::log_level();
  ou::set_log_level(ou::LogLevel::Error);
  EXPECT_EQ(ou::log_level(), ou::LogLevel::Error);
  OPT_LOG(Debug) << "suppressed";
  ou::set_log_level(prior);
}

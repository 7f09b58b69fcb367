// Tests for the strict flag parsing shared by fba_sim, fba_repro and the
// benches (bench/bench_util.h): malformed values and repeated flags exit 2
// with a one-line error instead of wrapping, truncating or silently falling
// back.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace fba::benchutil {
namespace {

/// flag_value over a synthetic command line `fba_sim <args...>`.
std::size_t parse_flag(const std::vector<std::string>& args, const char* name,
                       std::size_t fallback) {
  std::vector<std::string> storage = {"/usr/local/bin/fba_sim"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  return flag_value(static_cast<int>(argv.size()), argv.data(), name,
                    fallback);
}

TEST(FlagValueTest, AcceptsDigitsZeroAndTheLargestValue) {
  EXPECT_EQ(parse_flag({"--n=12"}, "--n", 7), 12u);
  EXPECT_EQ(parse_flag({"--d=0"}, "--d", 9), 0u);  // zero means "auto"
  EXPECT_EQ(parse_flag({"--seed=18446744073709551615"}, "--seed", 1),
            18446744073709551615u);
  EXPECT_EQ(parse_flag({"--nodes=5"}, "--n", 7), 7u);  // absent: fallback
  EXPECT_EQ(parse_flag({}, "--n", 7), 7u);
}

TEST(FlagValueDeathTest, RejectsMalformedValuesWithExitTwo) {
  const std::vector<std::string> bad = {"-5", "12x", "abc", "",
                                        "18446744073709551616"};
  for (const std::string& value : bad) {
    EXPECT_EXIT(parse_flag({"--n=" + value}, "--n", 7),
                ::testing::ExitedWithCode(2),
                "fba_sim: invalid --n=" + value +
                    " \\(expected a non-negative integer\\)")
        << "value '" << value << "'";
  }
}

TEST(FlagValueDeathTest, RefusesARepeatedFlag) {
  EXPECT_EXIT(parse_flag({"--n=64", "--n=32"}, "--n", 7),
              ::testing::ExitedWithCode(2), "fba_sim: repeated flag --n\n");
  EXPECT_EXIT(parse_flag({"--n=64", "--seed=1", "--n=64"}, "--n", 7),
              ::testing::ExitedWithCode(2), "repeated flag --n");
  // A flag whose name only starts with --n is another flag.
  EXPECT_EQ(parse_flag({"--n=64", "--nodes=32"}, "--n", 7), 64u);
}

TEST(PositiveFlagDeathTest, RejectsZeroAndOverflow) {
  EXPECT_EQ(positive_flag("fba_sim", "--trials", "4"), 4u);
  EXPECT_EXIT(positive_flag("fba_sim", "--trials", "0"),
              ::testing::ExitedWithCode(2), "expected a positive integer");
  EXPECT_EXIT(positive_flag("fba_sim", "--trials", "18446744073709551616"),
              ::testing::ExitedWithCode(2), "expected a positive integer");
}

}  // namespace
}  // namespace fba::benchutil

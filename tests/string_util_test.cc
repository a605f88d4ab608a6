#include "util/string_util.h"

#include <gtest/gtest.h>

namespace cluseq {
namespace {

TEST(SplitTest, Basic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoDelimiter) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StripTest, StripsBothEnds) {
  EXPECT_EQ(StripAsciiWhitespace("  hi\t\r\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("hi"), "hi");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringPrintfTest, Formats) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(ParseFlagTest, MatchesAndExtracts) {
  std::string value;
  EXPECT_TRUE(ParseFlag("--scale=0.5", "scale", &value));
  EXPECT_EQ(value, "0.5");
  EXPECT_FALSE(ParseFlag("--scale", "scale", &value));
  EXPECT_FALSE(ParseFlag("--other=1", "scale", &value));
  EXPECT_TRUE(ParseFlag("--name=", "name", &value));
  EXPECT_EQ(value, "");
}

TEST(ParseUint64Test, AcceptsWholeDecimalNumbers) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("0042", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseUint64Test, RejectsSignsTrailingTextAndOverflow) {
  uint64_t v = 7;
  for (const char* bad : {"", "-5", "+5", "four", "2x", " 3", "3 ", "1.5",
                          "0x10", "18446744073709551616",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseUint64(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7u) << "'" << bad << "' must leave the output untouched";
  }
}

TEST(ParseInt32Test, AcceptsSignedWholeNumbersInRange) {
  int32_t v = 0;
  EXPECT_TRUE(ParseInt32("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt32("-1", &v));
  EXPECT_EQ(v, -1);
  EXPECT_TRUE(ParseInt32("2147483647", &v));
  EXPECT_EQ(v, INT32_MAX);
  EXPECT_TRUE(ParseInt32("-2147483648", &v));
  EXPECT_EQ(v, INT32_MIN);
}

TEST(ParseInt32Test, RejectsTrailingTextAndOutOfRange) {
  int32_t v = 7;
  for (const char* bad : {"", "-", "+5", "--1", "x", "3x", " 3", "3 ", "1.5",
                          "2147483648", "-2147483649", "99999999999"}) {
    EXPECT_FALSE(ParseInt32(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7) << "'" << bad << "' must leave the output untouched";
  }
}

TEST(ParseDoubleTest, AcceptsWholeFiniteNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("0.5", &v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(ParseDouble("-2", &v));
  EXPECT_EQ(v, -2.0);
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_EQ(v, 1000.0);
}

TEST(ParseDoubleTest, RejectsTrailingTextNonFiniteAndOverflow) {
  double v = 7.0;
  for (const char* bad :
       {"", "abc", "0.5x", " 1", "1 ", "inf", "-inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseDouble(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 7.0) << "'" << bad << "' must leave the output untouched";
  }
}

TEST(HumanBytesTest, Units) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(5 * 1024 * 1024), "5.0 MiB");
}

}  // namespace
}  // namespace cluseq

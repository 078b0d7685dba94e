#include "cellfi/common/json.h"

#include <gtest/gtest.h>

namespace cellfi::json {
namespace {

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->as_bool());
  EXPECT_FALSE(Parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Parse("3.5")->as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Parse("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Parse("1e3")->as_number(), 1000.0);
  EXPECT_EQ(Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParseNestedStructure) {
  auto v = Parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const auto* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_TRUE(a->as_array()[2].Find("b")->as_bool());
  EXPECT_EQ(v->Find("c")->as_string(), "x");
}

TEST(JsonTest, ParseStringEscapes) {
  auto v = Parse(R"("line\nbreak\t\"q\" \\ A")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "line\nbreak\t\"q\" \\ A");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Parse("").has_value());
  EXPECT_FALSE(Parse("{").has_value());
  EXPECT_FALSE(Parse("[1,]").has_value());
  EXPECT_FALSE(Parse("{\"a\":}").has_value());
  EXPECT_FALSE(Parse("\"unterminated").has_value());
  EXPECT_FALSE(Parse("tru").has_value());
  EXPECT_FALSE(Parse("1 2").has_value());
  EXPECT_FALSE(Parse("{\"a\":1,}").has_value());
}

TEST(JsonTest, NumbersFollowRfc8259Grammar) {
  EXPECT_EQ(Parse("0")->as_number(), 0.0);
  EXPECT_EQ(Parse("-0.5")->as_number(), -0.5);
  EXPECT_EQ(Parse("1E+2")->as_number(), 100.0);
  EXPECT_EQ(Parse("2.5e-3")->as_number(), 2.5e-3);
  EXPECT_EQ(Parse("47.640000000000001")->as_number(), 47.64);
  EXPECT_EQ(Parse("[-122.13]")->as_array()[0].as_number(), -122.13);
  for (const char* bad : {"1e", "1e+", "1-2", "+1", "01", "-01", "1.", ".5", "-",
                          "1.e3", "--1", "1ee2", "0x10", "1e400", "[01]", "[1.]"}) {
    EXPECT_FALSE(Parse(bad).has_value()) << bad;
  }
}

TEST(JsonTest, NestingDepthIsBounded) {
  // Deep nesting used to overflow the recursive-descent stack (SIGSEGV).
  EXPECT_FALSE(Parse(std::string(200000, '[')).has_value());
  EXPECT_FALSE(Parse(std::string(200000, '[') + std::string(200000, ']')).has_value());
  std::string deep_object;
  for (int i = 0; i < 100000; ++i) deep_object += "{\"a\":";
  EXPECT_FALSE(Parse(deep_object).has_value());

  // 256 levels parse; the 257th is refused.
  EXPECT_TRUE(Parse(std::string(256, '[') + std::string(256, ']')).has_value());
  EXPECT_FALSE(Parse(std::string(257, '[') + std::string(257, ']')).has_value());
}

TEST(JsonTest, DumpParsesBack) {
  Value v;
  v["deviceDesc"]["serialNumber"] = "cellfi-ap-001";
  v["location"]["point"]["center"]["latitude"] = 47.64;
  v["location"]["point"]["center"]["longitude"] = -122.13;
  v["channels"] = Array{Value(21), Value(22), Value(23)};
  v["flag"] = true;

  auto round = Parse(v.Dump());
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, v);
}

TEST(JsonTest, NumbersSerializeCompactly) {
  EXPECT_EQ(Value(42).Dump(), "42");
  EXPECT_EQ(Value(-7).Dump(), "-7");
  EXPECT_EQ(Value(2.5).Dump(), "2.5");
}

TEST(JsonTest, WhitespaceTolerated) {
  auto v = Parse("  {  \"a\"  :  [ 1 ,  2 ]  }  ");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("a")->as_array().size(), 2u);
}

TEST(JsonTest, OperatorIndexCreatesObject) {
  Value v;
  v["x"] = 1;
  EXPECT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.Find("x")->as_number(), 1.0);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, IntegerReadsAcceptOnlyIntegralValuesInRange) {
  EXPECT_EQ(Value(42).as_integer<int>(), 42);
  EXPECT_EQ(Value(-7).as_integer<std::int64_t>(), -7);
  EXPECT_EQ(Value(9e15).as_integer<std::int64_t>(), std::int64_t{9'000'000'000'000'000});
  EXPECT_EQ(Value(2147483647.0).as_integer<int>(), 2147483647);
  EXPECT_FALSE(Value(2147483648.0).as_integer<int>());
  EXPECT_FALSE(Value(3e9).as_integer<int>());
  EXPECT_FALSE(Value(1.5).as_integer<int>());
  EXPECT_FALSE(Value(1e300).as_integer<std::int64_t>());
  EXPECT_FALSE(Value(9223372036854775808.0).as_integer<std::int64_t>());  // 2^63
  EXPECT_FALSE(Value(-1).as_integer<std::uint64_t>());
  EXPECT_FALSE(Value("5").as_integer<int>());

  EXPECT_EQ(Value("18446744073709551615").as_decimal_u64(), 18446744073709551615ull);
  for (const char* bad : {"", "-1", " 5", "5x", "18446744073709551616"}) {
    EXPECT_FALSE(Value(bad).as_decimal_u64()) << '"' << bad << '"';
  }
  EXPECT_FALSE(Value(5).as_decimal_u64());
}

}  // namespace
}  // namespace cellfi::json

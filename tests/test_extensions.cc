// Tests for the text parsers: the inline pattern syntax and the strict
// parser behind every numeric command-line flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "query/pattern_parser.h"
#include "test_util.h"
#include "util/numeric_flag.h"

namespace rigpm {
namespace {

using ::rigpm::testing::PaperExample;

// --- Pattern parser.

TEST(PatternParser, ParsesPaperExampleQuery) {
  auto q = ParsePattern("(a:0)->(b:1), (a)->(c:2), (b)=>(c)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(*q, PaperExample::MakeQuery());
}

TEST(PatternParser, ChainClause) {
  auto q = ParsePattern("(x:5)->(y:6)=>(z:7)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->NumNodes(), 3u);
  EXPECT_EQ(q->NumEdges(), 2u);
  EXPECT_EQ(q->Edge(0).kind, EdgeKind::kChild);
  EXPECT_EQ(q->Edge(1).kind, EdgeKind::kDescendant);
}

TEST(PatternParser, ReversedArrows) {
  auto q = ParsePattern("(a:0)<-(b:1), (a)<=(c:2)");
  ASSERT_TRUE(q.has_value());
  // b -> a (child), c => a (descendant).
  EXPECT_TRUE(q->HasEdgeBetween(1, 0));
  EXPECT_TRUE(q->HasEdgeBetween(2, 0));
  EXPECT_EQ(q->InDegree(0), 2u);
}

TEST(PatternParser, RejectsErrors) {
  std::string error;
  EXPECT_FALSE(ParsePattern("", &error).has_value());
  EXPECT_FALSE(ParsePattern("(a)", &error).has_value());  // no label
  EXPECT_NE(error.find("label"), std::string::npos);
  EXPECT_FALSE(ParsePattern("(a:0)->(a:1)", &error).has_value());  // conflict
  EXPECT_FALSE(ParsePattern("(a:0)~>(b:1)", &error).has_value());  // bad edge
  EXPECT_FALSE(ParsePattern("(a:0)->", &error).has_value());
  EXPECT_FALSE(ParsePattern("(:0)->(b:1)", &error).has_value());  // no name

  // Numbers that do not fit 32 bits are errors that name their offset.
  const char* huge_label = "(a:0)->(b:99999999999999999999999)";
  EXPECT_FALSE(ParsePattern(huge_label, &error).has_value());
  EXPECT_NE(error.find("label"), std::string::npos) << error;
  EXPECT_NE(error.find("offset 10"), std::string::npos) << error;
  EXPECT_FALSE(ParsePattern("(a:0)->(b:4294967297)", &error).has_value());
  EXPECT_NE(error.find("label"), std::string::npos) << error;
  EXPECT_FALSE(ParsePattern("(a:0)=4294967296>(c:2)", &error).has_value());
  EXPECT_NE(error.find("hop bound"), std::string::npos) << error;
  EXPECT_NE(error.find("offset 6"), std::string::npos) << error;
  // A path needs at least one edge; =0> must not mean "unbounded".
  EXPECT_FALSE(ParsePattern("(a:0)=0>(c:2)", &error).has_value());
  EXPECT_NE(error.find("hop bound"), std::string::npos) << error;

  // The largest values that fit still parse.
  auto max_label = ParsePattern("(a:4294967295)", &error);
  ASSERT_TRUE(max_label.has_value()) << error;
  EXPECT_EQ(max_label->Label(0), 4294967295u);
  auto max_hops = ParsePattern("(a:0)=4294967295>(c:2)", &error);
  ASSERT_TRUE(max_hops.has_value()) << error;
  EXPECT_EQ(max_hops->Edge(0).max_hops, 4294967295u);
}

TEST(PatternParser, RoundTripThroughToString) {
  PatternQuery q = PaperExample::MakeQuery();
  std::string text = PatternToString(q);
  auto parsed = ParsePattern(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(*parsed, q);
}

TEST(PatternParser, WhitespaceTolerant) {
  auto q = ParsePattern("  ( a:0 ) -> ( b:1 ) ,\n (b) => (c:2)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->NumNodes(), 3u);
  EXPECT_EQ(q->NumEdges(), 2u);
}

// --- Numeric flag values (util/numeric_flag.h).

TEST(NumericFlag, AcceptsWholeDecimalStringsThatFit) {
  uint32_t u32 = 99;
  EXPECT_TRUE(ParseUnsigned("0", &u32));
  EXPECT_EQ(u32, 0u);
  EXPECT_TRUE(ParseUnsigned("4294967295", &u32));
  EXPECT_EQ(u32, 4294967295u);
  uint16_t port = 0;
  EXPECT_TRUE(ParseUnsigned("65535", &port));
  EXPECT_EQ(port, 65535u);
  uint64_t u64 = 0;
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", &u64));
  EXPECT_EQ(u64, std::numeric_limits<uint64_t>::max());
}

TEST(NumericFlag, RejectsMalformedAndOutOfRangeValues) {
  for (const char* bad : {"", "abc", "12x", "-1", " 7", "7 ", "+7", "0x10"}) {
    uint32_t u32 = 99;
    EXPECT_FALSE(ParseUnsigned(bad, &u32)) << '"' << bad << '"';
    EXPECT_EQ(u32, 99u) << "a failed parse must leave the value untouched";
  }
  uint32_t u32 = 99;
  EXPECT_FALSE(ParseUnsigned("4294967296", &u32));
  EXPECT_EQ(u32, 99u);
  uint16_t port = 7;
  EXPECT_FALSE(ParseUnsigned("65536", &port));
  EXPECT_FALSE(ParseUnsigned("70000", &port));
  EXPECT_EQ(port, 7u);
  uint64_t u64 = 5;
  EXPECT_FALSE(ParseUnsigned("18446744073709551616", &u64));
  EXPECT_EQ(u64, 5u);
}

TEST(NumericFlag, RatioMustBeAFiniteNonNegativeDouble) {
  double ratio = -1;
  EXPECT_TRUE(ParseNonNegativeDouble("0.5", &ratio));
  EXPECT_EQ(ratio, 0.5);
  EXPECT_TRUE(ParseNonNegativeDouble("0", &ratio));
  EXPECT_EQ(ratio, 0.0);
  EXPECT_TRUE(ParseNonNegativeDouble("2", &ratio));
  EXPECT_EQ(ratio, 2.0);
  for (const char* bad :
       {"", "abc", "0.5x", "-0.5", " 1", "1 ", "nan", "inf", "1e999"}) {
    double value = 3.0;
    EXPECT_FALSE(ParseNonNegativeDouble(bad, &value)) << '"' << bad << '"';
    EXPECT_EQ(value, 3.0);
  }
}

TEST(NumericFlag, FlagWrapperUsesTheParserForItsType) {
  uint16_t port = 1;
  EXPECT_TRUE(ParseNumericFlag("--port", "8080", &port));
  EXPECT_EQ(port, 8080u);
  EXPECT_FALSE(ParseNumericFlag("--port", "65536", &port));
  EXPECT_EQ(port, 8080u);
  double ratio = 0;
  EXPECT_TRUE(ParseNumericFlag("--auto-compact-ratio", "1.5", &ratio));
  EXPECT_EQ(ratio, 1.5);
  EXPECT_FALSE(ParseNumericFlag("--auto-compact-ratio", "-1", &ratio));
  EXPECT_EQ(ratio, 1.5);
}

}  // namespace
}  // namespace rigpm

// Unit tests for the RESP2 codec: encode/parse round trips for every wire
// type, incremental (truncated-buffer) behaviour, malformed-input protocol
// errors, and the two client request forms (multibulk and inline).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {
namespace {

// ParseCommand into a fresh argv vector, for tests that read both.
struct Parsed {
  CommandParse result;
  std::vector<std::string_view> argv;
};

Parsed Parse(std::string_view wire) {
  Parsed parsed;
  parsed.result = ParseCommand(wire, &parsed.argv);
  return parsed;
}

RespValue RoundTrip(const RespValue& value) {
  const std::string wire = Encode(value);
  const ParseResult parsed = ParseValue(wire);
  EXPECT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
  EXPECT_EQ(parsed.consumed, wire.size());
  return parsed.value;
}

TEST(RespCodecTest, SimpleStringRoundTrip) {
  const RespValue out = RoundTrip(RespValue::Simple("OK"));
  EXPECT_EQ(out.type, RespType::kSimpleString);
  EXPECT_EQ(out.text, "OK");
}

TEST(RespCodecTest, ErrorRoundTrip) {
  const RespValue out = RoundTrip(RespValue::Error("ERR boom"));
  EXPECT_TRUE(out.IsError());
  EXPECT_EQ(out.text, "ERR boom");
}

TEST(RespCodecTest, IntegerRoundTrip) {
  EXPECT_EQ(RoundTrip(RespValue::Integer(0)).integer, 0);
  EXPECT_EQ(RoundTrip(RespValue::Integer(42)).integer, 42);
  EXPECT_EQ(RoundTrip(RespValue::Integer(-7)).integer, -7);
  EXPECT_EQ(Encode(RespValue::Integer(42)), ":42\r\n");
  // The widest values the appender formats without a temporary string.
  for (const long long extreme : {std::numeric_limits<long long>::min(),
                                  std::numeric_limits<long long>::max()}) {
    EXPECT_EQ(Encode(RespValue::Integer(extreme)),
              ":" + std::to_string(extreme) + "\r\n");
  }
}

TEST(RespCodecTest, BulkStringRoundTrip) {
  const RespValue out = RoundTrip(RespValue::Bulk("hello"));
  EXPECT_EQ(out.type, RespType::kBulkString);
  EXPECT_EQ(out.text, "hello");
  EXPECT_EQ(Encode(RespValue::Bulk("hello")), "$5\r\nhello\r\n");
}

TEST(RespCodecTest, EmptyAndBinaryBulkStrings) {
  EXPECT_EQ(RoundTrip(RespValue::Bulk("")).text, "");
  // Bulk payloads are length-prefixed, so CRLF and NUL bytes survive.
  const std::string binary("a\r\nb\0c", 6);
  const RespValue out = RoundTrip(RespValue::Bulk(binary));
  EXPECT_EQ(out.text, binary);
}

TEST(RespCodecTest, NullRoundTrip) {
  EXPECT_EQ(Encode(RespValue::Null()), "$-1\r\n");
  EXPECT_EQ(RoundTrip(RespValue::Null()).type, RespType::kNull);
}

TEST(RespCodecTest, NullArrayParsesToNull) {
  const ParseResult parsed = ParseValue("*-1\r\n");
  ASSERT_EQ(parsed.status, ParseStatus::kOk);
  EXPECT_EQ(parsed.value.type, RespType::kNull);
}

TEST(RespCodecTest, ArrayRoundTrip) {
  std::vector<RespValue> elements;
  elements.push_back(RespValue::Bulk("a"));
  elements.push_back(RespValue::Integer(2));
  elements.push_back(RespValue::Array({}));  // nested empty array
  const RespValue out = RoundTrip(RespValue::Array(std::move(elements)));
  ASSERT_EQ(out.type, RespType::kArray);
  ASSERT_EQ(out.elements.size(), 3u);
  EXPECT_EQ(out.elements[0].text, "a");
  EXPECT_EQ(out.elements[1].integer, 2);
  EXPECT_EQ(out.elements[2].type, RespType::kArray);
  EXPECT_TRUE(out.elements[2].elements.empty());
}

TEST(RespCodecTest, EmptyArrayEncoding) {
  EXPECT_EQ(Encode(RespValue::Array({})), "*0\r\n");
}

TEST(RespCodecTest, TruncatedInputsReportIncompleteNotError) {
  const std::string wire = "*2\r\n$5\r\nhello\r\n$5\r\nworld\r\n";
  for (size_t len = 0; len < wire.size(); ++len) {
    const ParseResult parsed = ParseValue(wire.substr(0, len));
    EXPECT_EQ(parsed.status, ParseStatus::kIncomplete) << "prefix " << len;
  }
  EXPECT_EQ(ParseValue(wire).status, ParseStatus::kOk);
}

TEST(RespCodecTest, UnknownTypeByteIsProtocolError) {
  const ParseResult parsed = ParseValue("&3\r\n");
  EXPECT_EQ(parsed.status, ParseStatus::kError);
  EXPECT_NE(parsed.error.find("unknown type byte"), std::string::npos);
}

TEST(RespCodecTest, NonNumericLengthsAreProtocolErrors) {
  EXPECT_EQ(ParseValue("$abc\r\n").status, ParseStatus::kError);
  EXPECT_EQ(ParseValue("*1x\r\n").status, ParseStatus::kError);
  EXPECT_EQ(ParseValue(":12.5\r\n").status, ParseStatus::kError);
  EXPECT_EQ(ParseValue(":\r\n").status, ParseStatus::kError);
}

TEST(RespCodecTest, NegativeAndOversizedLengthsAreProtocolErrors) {
  EXPECT_EQ(ParseValue("$-2\r\n").status, ParseStatus::kError);
  EXPECT_EQ(ParseValue("*-2\r\n").status, ParseStatus::kError);
  // One past the bulk cap; parsing must fail before allocating anything.
  EXPECT_EQ(ParseValue("$536870913\r\n").status, ParseStatus::kError);
  // The multibulk cap is request-side: ParseCommand rejects it...
  EXPECT_EQ(Parse("*1048577\r\n").result.status, ParseStatus::kError);
  // ...while the reply path just keeps waiting for the elements.
  EXPECT_EQ(ParseValue("*1048577\r\n").status, ParseStatus::kIncomplete);
}

TEST(RespCodecTest, OverlongLengthHeadersFailCleanly) {
  // Magnitudes past long long must be rejected, not overflowed.
  EXPECT_EQ(ParseValue("$99999999999999999999\r\n").status,
            ParseStatus::kError);
  EXPECT_EQ(ParseValue(":99999999999999999999\r\n").status,
            ParseStatus::kError);
  EXPECT_EQ(Parse("*99999999999999999999\r\n").result.status,
            ParseStatus::kError);
}

TEST(RespCodecTest, RepliesMayExceedTheRequestMultibulkCap) {
  // A CG.NEIGHBORS reply for a vertex with > kMaxMultibulkLen successors
  // is a legal reply; only client requests are capped.
  const long long len = kMaxMultibulkLen + 1;
  std::string wire = "*" + std::to_string(len) + "\r\n";
  wire.reserve(wire.size() + static_cast<size_t>(len) * 4);
  for (long long i = 0; i < len; ++i) wire += ":1\r\n";
  const ParseResult parsed = ParseValue(wire);
  ASSERT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
  EXPECT_EQ(parsed.value.elements.size(), static_cast<size_t>(len));
}

TEST(RespCodecTest, LineFramedEncodingSanitizesCrlf) {
  // CR/LF inside error or simple-string text would split the frame and
  // desync the stream; Encode maps them to spaces like Redis does.
  EXPECT_EQ(Encode(RespValue::Error("ERR bad\r\nname")),
            "-ERR bad  name\r\n");
  EXPECT_EQ(Encode(RespValue::Simple("a\nb")), "+a b\r\n");
}

TEST(RespCodecTest, BulkPayloadMustEndInCrlf) {
  const ParseResult parsed = ParseValue("$5\r\nhelloXY");
  EXPECT_EQ(parsed.status, ParseStatus::kError);
  EXPECT_NE(parsed.error.find("CRLF"), std::string::npos);
}

TEST(RespCodecTest, ParseStopsAtValueBoundary) {
  const ParseResult parsed = ParseValue(":1\r\n:2\r\n");
  ASSERT_EQ(parsed.status, ParseStatus::kOk);
  EXPECT_EQ(parsed.value.integer, 1);
  EXPECT_EQ(parsed.consumed, 4u);
}

TEST(RespCommandTest, MultibulkCommand) {
  const Parsed parsed =
      Parse("*3\r\n$9\r\nCG.INSERT\r\n$1\r\n1\r\n$1\r\n2\r\n");
  ASSERT_EQ(parsed.result.status, ParseStatus::kOk);
  EXPECT_EQ(parsed.argv,
            (std::vector<std::string_view>{"CG.INSERT", "1", "2"}));
}

TEST(RespCommandTest, InlineCommandCrlfAndBareLf) {
  for (const char* wire : {"CG.QUERY 1 2\r\n", "CG.QUERY 1 2\n"}) {
    const Parsed parsed = Parse(wire);
    ASSERT_EQ(parsed.result.status, ParseStatus::kOk) << wire;
    EXPECT_EQ(parsed.argv,
              (std::vector<std::string_view>{"CG.QUERY", "1", "2"}));
  }
}

TEST(RespCommandTest, InlineCommandCollapsesBlankSeparators) {
  const Parsed parsed = Parse("  CG.DEGREE \t 7  \r\n");
  ASSERT_EQ(parsed.result.status, ParseStatus::kOk);
  EXPECT_EQ(parsed.argv, (std::vector<std::string_view>{"CG.DEGREE", "7"}));
}

TEST(RespCommandTest, BlankInlineLineIsEmptyNoOp) {
  const Parsed parsed = Parse("\r\n");
  ASSERT_EQ(parsed.result.status, ParseStatus::kOk);
  EXPECT_TRUE(parsed.argv.empty());
  EXPECT_EQ(parsed.result.consumed, 2u);
}

TEST(RespCommandTest, EmptyMultibulkIsEmptyNoOp) {
  const Parsed parsed = Parse("*0\r\n");
  ASSERT_EQ(parsed.result.status, ParseStatus::kOk);
  EXPECT_TRUE(parsed.argv.empty());
}

TEST(RespCommandTest, IncompleteCommandWaitsForMoreBytes) {
  EXPECT_EQ(Parse("").result.status, ParseStatus::kIncomplete);
  EXPECT_EQ(Parse("CG.QUERY 1 2").result.status, ParseStatus::kIncomplete);
  EXPECT_EQ(Parse("*2\r\n$3\r\nfoo\r\n").result.status,
            ParseStatus::kIncomplete);
}

TEST(RespCommandTest, MultibulkElementsMustBeBulkStrings) {
  const Parsed parsed = Parse("*1\r\n:5\r\n");
  EXPECT_EQ(parsed.result.status, ParseStatus::kError);
  EXPECT_NE(parsed.result.error.find("expected '$'"), std::string::npos);
}

TEST(RespCommandTest, NullMultibulkIsProtocolError) {
  EXPECT_EQ(Parse("*-1\r\n").result.status, ParseStatus::kError);
}

TEST(RespCommandTest, EncodeCommandProducesMultibulk) {
  EXPECT_EQ(EncodeCommand({"CG.DEL", "10", "20"}),
            "*3\r\n$6\r\nCG.DEL\r\n$2\r\n10\r\n$2\r\n20\r\n");
}

}  // namespace
}  // namespace cuckoograph::redis_sim

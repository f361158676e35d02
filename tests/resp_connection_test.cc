// Unit tests for the transport-agnostic dispatch core, the in-process
// front door: CommandTable (registration, arity, Span argv dispatch,
// appended replies) and RespConnection (per-connection parser state,
// command and error counters, protocol-error handling, the request-line
// cap). The multi-connection cases run several connections with
// interleaved partial commands over one table.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/span.h"
#include "redis_sim/command_table.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {
namespace {

// Registers an ECHO command (replies its first argument) and a PING,
// each counting its invocations in *calls when given.
void RegisterEcho(CommandTable* table, int* calls = nullptr) {
  table->RegisterCommand(
      "ECHO", 2,
      [calls](Span<const std::string_view> argv, std::string* out) {
        if (calls != nullptr) ++*calls;
        AppendBulk(out, argv[1]);
      });
  table->RegisterCommand(
      "PING", 1, [calls](Span<const std::string_view>, std::string* out) {
        if (calls != nullptr) ++*calls;
        AppendSimple(out, "PONG");
      });
}

TEST(CommandTableTest, DispatchRoutesBySpanArgv) {
  CommandTable table;
  int calls = 0;
  RegisterEcho(&table, &calls);
  const std::vector<std::string_view> argv = {"echo", "hello"};
  const RespValue reply = table.Dispatch(Span<const std::string_view>(argv));
  EXPECT_EQ(reply.type, RespType::kBulkString);
  EXPECT_EQ(reply.text, "hello");
  EXPECT_EQ(calls, 1);

  // The appending form writes the same bytes onto the caller's buffer.
  std::string out = "+prefix\r\n";
  EXPECT_TRUE(table.Dispatch(Span<const std::string_view>(argv), &out));
  EXPECT_EQ(out, "+prefix\r\n$5\r\nhello\r\n");

  // Through a connection, the command counts and no error does.
  RespConnection conn(&table);
  out.clear();
  EXPECT_TRUE(conn.Feed(EncodeCommand({"ECHO", "hello"}), &out));
  EXPECT_EQ(conn.stats().commands, 1u);
  EXPECT_EQ(conn.stats().error_replies, 0u);
  EXPECT_EQ(calls, 3);
}

TEST(CommandTableTest, UnknownAndWrongArityNeverReachHandlers) {
  CommandTable table;
  int calls = 0;
  RegisterEcho(&table, &calls);
  const std::vector<std::string_view> unknown = {"NOPE"};
  EXPECT_TRUE(
      table.Dispatch(Span<const std::string_view>(unknown)).IsError());
  const std::vector<std::string_view> bad_arity = {"PING", "extra"};
  EXPECT_TRUE(
      table.Dispatch(Span<const std::string_view>(bad_arity)).IsError());
  RespConnection conn(&table);
  std::string out;
  EXPECT_TRUE(conn.Feed(EncodeCommand({"NOPE"}) +
                            EncodeCommand({"PING", "extra"}),
                        &out));
  EXPECT_EQ(out,
            "-ERR unknown command 'NOPE'\r\n"
            "-ERR wrong number of arguments for 'ping' command\r\n");
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(conn.stats().error_replies, 2u);
}

TEST(CommandTableTest, HandlerErrorRepliesAreCounted) {
  CommandTable table;
  int calls = 0;
  table.RegisterCommand(
      "FAIL", 1, [&calls](Span<const std::string_view>, std::string* out) {
        ++calls;
        AppendError(out, "ERR handler says no");
      });
  const std::vector<std::string_view> argv = {"FAIL"};
  EXPECT_TRUE(table.Dispatch(Span<const std::string_view>(argv)).IsError());
  std::string out;
  EXPECT_FALSE(table.Dispatch(Span<const std::string_view>(argv), &out));
  RespConnection conn(&table);
  EXPECT_TRUE(conn.Feed(EncodeCommand({"FAIL"}), &out));
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(conn.stats().commands, 1u);
  EXPECT_EQ(conn.stats().error_replies, 1u);
}

TEST(CommandTableTest, RegistrationRejectsDuplicatesCaseInsensitively) {
  CommandTable table;
  const auto handler = [](Span<const std::string_view>, std::string* out) {
    AppendSimple(out, "OK");
  };
  EXPECT_TRUE(table.RegisterCommand("PING", -1, handler));
  EXPECT_FALSE(table.RegisterCommand("ping", -1, handler));
  EXPECT_EQ(table.CommandNames(), std::vector<std::string>{"PING"});
}

TEST(CommandTableTest, NegativeArityMeansAtLeast) {
  CommandTable table;
  table.RegisterCommand(
      "VARARG", -2, [](Span<const std::string_view> argv, std::string* out) {
        AppendInteger(out, static_cast<long long>(argv.size()));
      });
  const auto dispatch = [&table](std::vector<std::string_view> argv) {
    return table.Dispatch(Span<const std::string_view>(argv));
  };
  EXPECT_TRUE(dispatch({"VARARG"}).IsError());
  EXPECT_EQ(dispatch({"VARARG", "a"}).integer, 2);
  EXPECT_EQ(dispatch({"VARARG", "a", "b", "c"}).integer, 4);
}

TEST(RespConnectionTest, InterleavedPartialCommandsDoNotShareParserState) {
  CommandTable table;
  int calls = 0;
  RegisterEcho(&table, &calls);
  RespConnection a(&table);
  RespConnection b(&table);

  const std::string wire_a = EncodeCommand({"ECHO", "from-a"});
  const std::string wire_b = EncodeCommand({"ECHO", "from-b"});

  // a receives the front half of its request, then b a full request,
  // then a the rest: b must answer immediately and a must stay buffered
  // until its own bytes complete — never spliced with b's.
  std::string out_a, out_b;
  EXPECT_TRUE(a.Feed(wire_a.substr(0, wire_a.size() / 2), &out_a));
  EXPECT_TRUE(out_a.empty());
  EXPECT_GT(a.buffered_bytes(), 0u);

  EXPECT_TRUE(b.Feed(wire_b, &out_b));
  EXPECT_EQ(out_b, "$6\r\nfrom-b\r\n");
  EXPECT_EQ(b.buffered_bytes(), 0u);

  EXPECT_TRUE(a.Feed(wire_a.substr(wire_a.size() / 2), &out_a));
  EXPECT_EQ(out_a, "$6\r\nfrom-a\r\n");
  EXPECT_EQ(a.buffered_bytes(), 0u);

  // The shared table's handler ran for both; each connection counted
  // only its own.
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(a.stats().commands, 1u);
  EXPECT_EQ(b.stats().commands, 1u);
}

TEST(RespConnectionTest, ByteAtATimeFeedReassemblesTheFrame) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  const std::string wire =
      EncodeCommand({"ECHO", "torn"}) + EncodeCommand({"PING"});
  std::string out;
  for (const char c : wire) {
    EXPECT_TRUE(conn.Feed(std::string_view(&c, 1), &out));
  }
  EXPECT_EQ(out, "$4\r\ntorn\r\n+PONG\r\n");
  EXPECT_EQ(conn.stats().commands, 2u);
}

TEST(RespConnectionTest, ProtocolErrorPoisonsOnlyThatConnection) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection poisoned(&table);
  RespConnection healthy(&table);

  std::string out;
  // A multibulk whose element is not a bulk string, with a valid request
  // pipelined behind it: the error reply is produced, the rest of the
  // buffer is discarded, and Feed reports the connection as dirty.
  EXPECT_FALSE(
      poisoned.Feed("*1\r\n:5\r\n" + EncodeCommand({"PING"}), &out));
  EXPECT_EQ(out, "-ERR Protocol error: expected '$', got ':'\r\n");
  EXPECT_EQ(poisoned.buffered_bytes(), 0u);
  EXPECT_EQ(poisoned.stats().protocol_errors, 1u);
  // The pipelined PING behind the poisoned request was never dispatched.
  EXPECT_EQ(poisoned.stats().commands, 0u);

  // The other connection never notices.
  out.clear();
  EXPECT_TRUE(healthy.Feed(EncodeCommand({"PING"}), &out));
  EXPECT_EQ(out, "+PONG\r\n");
  EXPECT_EQ(healthy.stats().protocol_errors, 0u);

  // An in-process caller that keeps feeding starts clean again.
  out.clear();
  EXPECT_TRUE(poisoned.Feed(EncodeCommand({"PING"}), &out));
  EXPECT_EQ(out, "+PONG\r\n");
}

TEST(RespConnectionTest, PipelinedFeedAnswersInRequestOrder) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  std::string out;
  EXPECT_TRUE(conn.Feed(EncodeCommand({"ECHO", "1st"}) +
                            EncodeCommand({"PING"}) +
                            EncodeCommand({"ECHO", "3rd"}),
                        &out));
  EXPECT_EQ(out, "$3\r\n1st\r\n+PONG\r\n$3\r\n3rd\r\n");
}

TEST(RespConnectionTest, StatsCountBytesBothWays) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  const std::string wire = EncodeCommand({"PING"});
  std::string out;
  EXPECT_TRUE(conn.Feed(wire, &out));
  EXPECT_EQ(conn.stats().bytes_in, wire.size());
  EXPECT_EQ(conn.stats().bytes_out, out.size());
  EXPECT_EQ(conn.stats().error_replies, 0u);
}

// A line that never ends must not grow the buffer without bound: past
// kMaxInlineLen bytes with no terminator, Redis answers a protocol error.
TEST(RespConnectionTest, UnterminatedInlineLineIsAProtocolError) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  std::string out;
  EXPECT_FALSE(conn.Feed(std::string(kMaxInlineLen + 1, 'a'), &out));
  EXPECT_EQ(out, "-ERR Protocol error: too big inline request\r\n");
  EXPECT_EQ(conn.buffered_bytes(), 0u);

  // Up to the cap the line may still end, so it stays buffered; the
  // first byte past it is refused, however the bytes were split.
  RespConnection split(&table);
  out.clear();
  EXPECT_TRUE(split.Feed(std::string(kMaxInlineLen, 'a'), &out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(split.buffered_bytes(), kMaxInlineLen);
  EXPECT_FALSE(split.Feed("a", &out));
  EXPECT_EQ(out, "-ERR Protocol error: too big inline request\r\n");
  EXPECT_EQ(split.buffered_bytes(), 0u);
}

TEST(RespConnectionTest, UnterminatedLengthHeadersAreProtocolErrors) {
  CommandTable table;
  RegisterEcho(&table);
  const std::string digits(70'000, '1');
  struct Case {
    std::string wire;
    const char* reply;
  };
  for (const Case& c :
       {Case{"*" + digits,
             "-ERR Protocol error: too big mbulk count string\r\n"},
        Case{"*1\r\n$" + digits,
             "-ERR Protocol error: too big bulk count string\r\n"}}) {
    RespConnection conn(&table);
    std::string out;
    EXPECT_FALSE(conn.Feed(c.wire, &out));
    EXPECT_EQ(out, c.reply);
    EXPECT_EQ(conn.buffered_bytes(), 0u);
  }
}

// The cap bounds unterminated lines only: a long request whose lines all
// end in time is served, and a pending bulk payload is not a line.
TEST(RespConnectionTest, LongTerminatedRequestsAreServed) {
  CommandTable table;
  RegisterEcho(&table);
  RespConnection conn(&table);
  const std::string big(3 * kMaxInlineLen, 'x');
  const std::string wire = EncodeCommand({"ECHO", big});
  std::string out;
  EXPECT_TRUE(conn.Feed(wire.substr(0, wire.size() - 1), &out));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(conn.Feed(wire.substr(wire.size() - 1), &out));
  EXPECT_EQ(out, Encode(RespValue::Bulk(big)));
  EXPECT_EQ(conn.buffered_bytes(), 0u);

  // An inline line of exactly kMaxInlineLen bytes before its LF is fine.
  out.clear();
  const std::string line =
      "ECHO " + std::string(kMaxInlineLen - 5, 'y') + "\n";
  EXPECT_TRUE(conn.Feed(line, &out));
  EXPECT_EQ(out, Encode(RespValue::Bulk(std::string(kMaxInlineLen - 5, 'y'))));
}

}  // namespace
}  // namespace cuckoograph::redis_sim

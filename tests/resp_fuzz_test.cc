// Seeded fuzz of the RESP request path: a RespConnection over a
// CommandTable serving the CG.* commands on a CuckooGraph. For any bytes,
// Feed must not crash (the ASan/UBSan build runs this suite), must return
// false exactly when it appended a protocol-error reply, and must hold no
// bytes after a false return. A valid pipelined stream must produce
// byte-identical replies however it is split across Feed calls. Inputs:
// random bytes, every prefix of a valid stream, single bit flips, and
// extreme length fields. Deterministic seeds keep CI reproducible; no
// fuzzing library is needed.
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cuckoo_graph.h"
#include "gtest/gtest.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {
namespace {

// One served graph and one connection into it, fresh per trial so every
// replay of a stream starts from the same state.
struct Served {
  Served() { RegisterGraphCommands(&table, &graph); }

  CuckooGraph graph;
  CommandTable table;
  RespConnection conn{&table};
};

// Decodes `replies` into whole values; a torn reply fails the test.
std::vector<RespValue> SplitReplies(std::string_view replies) {
  std::vector<RespValue> values;
  while (!replies.empty()) {
    ParseResult parsed = ParseValue(replies);
    EXPECT_EQ(parsed.status, ParseStatus::kOk) << parsed.error;
    if (parsed.status != ParseStatus::kOk) break;
    values.push_back(std::move(parsed.value));
    replies.remove_prefix(parsed.consumed);
  }
  return values;
}

bool IsProtocolError(const RespValue& reply) {
  return reply.IsError() && reply.text.rfind("ERR Protocol error", 0) == 0;
}

// Feeds `bytes` and checks the Feed contract on what it appended.
// Returns what Feed returned.
bool FeedChecked(RespConnection* conn, std::string_view bytes,
                 std::string* out) {
  const size_t out_start = out->size();
  const uint64_t errors_before = conn->stats().protocol_errors;
  const bool clean = conn->Feed(bytes, out);
  const std::vector<RespValue> replies =
      SplitReplies(std::string_view(*out).substr(out_start));
  size_t protocol_errors = 0;
  for (const RespValue& reply : replies) {
    protocol_errors += IsProtocolError(reply) ? 1 : 0;
  }
  EXPECT_EQ(protocol_errors, clean ? 0u : 1u);
  EXPECT_EQ(conn->stats().protocol_errors - errors_before, clean ? 0u : 1u);
  if (!clean) {
    EXPECT_TRUE(!replies.empty() && IsProtocolError(replies.back()))
        << "the protocol error must be the last reply";
    EXPECT_EQ(conn->buffered_bytes(), 0u);
  }
  return clean;
}

// A valid pipelined request stream over a small id space: every CG.*
// edge command (plus wrong arity, unknown names, bad ids and no-op
// requests), mostly multibulk, some inline. CG.NEIGHBORS is left out:
// its element order is unspecified, so two fresh graphs need not agree.
std::string ValidStream(uint64_t seed, int commands) {
  SplitMix64 rng(seed);
  const char* kNames[] = {"CG.INSERT", "cg.insert", "CG.QUERY", "CG.DEL",
                          "CG.DELETE", "CG.DEGREE", "CG.NOPE"};
  const auto id = [&rng] {
    return rng.NextBelow(8) == 0 ? std::string("x1")  // not an integer
                                 : std::to_string(rng.NextBelow(6));
  };
  std::string stream;
  for (int i = 0; i < commands; ++i) {
    switch (rng.NextBelow(10)) {
      case 0:
        stream += rng.NextBelow(2) == 0 ? "\r\n" : "*0\r\n";  // no-ops
        continue;
      case 1:  // wrong arity
        stream += EncodeCommand({"CG.INSERT", id()});
        continue;
      default:
        break;
    }
    const std::string name = kNames[rng.NextBelow(7)];
    std::vector<std::string> argv{name, id()};
    if (name != "CG.DEGREE") argv.push_back(id());
    if (rng.NextBelow(4) == 0) {  // the inline form
      std::string line = argv[0];
      for (size_t a = 1; a < argv.size(); ++a) line += " " + argv[a];
      stream += line + (rng.NextBelow(2) == 0 ? "\r\n" : "\n");
    } else {
      stream += EncodeCommand(argv);
    }
  }
  return stream;
}

// The replies to `stream` fed whole into a fresh graph.
std::string ReferenceReplies(const std::string& stream) {
  Served served;
  std::string out;
  EXPECT_TRUE(FeedChecked(&served.conn, stream, &out));
  EXPECT_EQ(served.conn.buffered_bytes(), 0u);
  return out;
}

// Bytes biased towards RESP framing, so headers and terminators collide
// often, with the extreme length fields mixed in as whole tokens.
std::string RandomBytes(SplitMix64* rng, size_t max_len) {
  static const char* const kTokens[] = {
      "*",
      "$",
      "\r\n",
      "\n",
      "-",
      "*1\r\n",
      "$3\r\n",
      "$-2",
      "$-1",
      "*-1",
      "*0",
      "$536870913",
      "*1048577",
      "$536870912",
      "*1048576",
      "99999999999999999999",
      "CG.INSERT 1 2",
  };
  constexpr size_t kNumTokens = sizeof(kTokens) / sizeof(kTokens[0]);
  const size_t len = rng->NextBelow64(max_len + 1);
  std::string bytes;
  while (bytes.size() < len) {
    switch (rng->NextBelow(4)) {
      case 0:
        bytes += kTokens[rng->NextBelow(kNumTokens)];
        break;
      case 1:
        bytes += static_cast<char>('0' + rng->NextBelow(10));
        break;
      default:
        bytes += static_cast<char>(rng->NextBelow(256));
        break;
    }
  }
  return bytes;
}

// Feeds `bytes` in random-sized chunks, checking the contract each time.
void FeedInRandomChunks(SplitMix64* rng, RespConnection* conn,
                        std::string_view bytes, std::string* out) {
  while (!bytes.empty()) {
    const size_t n = 1 + rng->NextBelow64(bytes.size());
    FeedChecked(conn, bytes.substr(0, n), out);
    bytes.remove_prefix(n);
  }
}

TEST(RespFuzzTest, RandomBytesKeepTheFeedContract) {
  SplitMix64 rng(0x5EED);
  for (int round = 0; round < 400; ++round) {
    Served served;
    std::string out;
    for (int chunk = 0; chunk < 8; ++chunk) {
      const std::string bytes = RandomBytes(&rng, 96);
      FeedChecked(&served.conn, bytes, &out);
      // The reply parser takes the same bytes without crashing, and a
      // value it accepts lies inside them.
      const ParseResult parsed = ParseValue(bytes);
      if (parsed.status == ParseStatus::kOk) {
        EXPECT_LE(parsed.consumed, bytes.size());
      }
    }
  }
}

TEST(RespFuzzTest, EveryPrefixSplitGivesIdenticalReplies) {
  const std::string stream = ValidStream(0xC0FFEE, 60);
  const std::string expected = ReferenceReplies(stream);
  for (size_t k = 0; k <= stream.size(); ++k) {
    Served served;
    std::string out;
    // A prefix of a valid stream is never a protocol error, and answers
    // exactly the commands it completes.
    ASSERT_TRUE(FeedChecked(&served.conn, stream.substr(0, k), &out))
        << "k=" << k;
    ASSERT_EQ(expected.compare(0, out.size(), out), 0) << "k=" << k;
    ASSERT_TRUE(FeedChecked(&served.conn, stream.substr(k), &out));
    ASSERT_EQ(out, expected) << "k=" << k;
    ASSERT_EQ(served.conn.buffered_bytes(), 0u);
  }
}

TEST(RespFuzzTest, RandomSplitsGiveIdenticalReplies) {
  SplitMix64 rng(0xD1CE);
  for (int round = 0; round < 40; ++round) {
    const std::string stream = ValidStream(rng.Next(), 80);
    const std::string expected = ReferenceReplies(stream);
    for (int split = 0; split < 10; ++split) {
      Served served;
      std::string out;
      FeedInRandomChunks(&rng, &served.conn, stream, &out);
      ASSERT_EQ(out, expected) << "round=" << round << " split=" << split;
      ASSERT_EQ(served.conn.buffered_bytes(), 0u);
    }
  }
}

TEST(RespFuzzTest, SingleBitFlipsKeepTheFeedContract) {
  SplitMix64 rng(0xB17);
  const std::string stream = ValidStream(0xF11B, 40);
  for (size_t pos = 0; pos < stream.size(); ++pos) {
    std::string flipped = stream;
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << rng.NextBelow(8)));
    {
      Served served;
      std::string out;
      FeedChecked(&served.conn, flipped, &out);
    }
    Served served;
    std::string out;
    FeedInRandomChunks(&rng, &served.conn, flipped, &out);
  }
}

TEST(RespFuzzTest, ExtremeLengthFieldsAreRefusedOrAwaited) {
  // Lengths no valid request carries: a protocol error, nothing kept.
  for (const std::string wire :
       {"*1\r\n$-2\r\n", "*1\r\n$536870913\r\n", "*1048577\r\n",
        "*-1\r\n", "*-2\r\n", "*99999999999999999999\r\n",
        "*1\r\n$99999999999999999999\r\n", "*-9223372036854775808\r\n",
        "*1\r\n$1x\r\n"}) {
    Served served;
    std::string out;
    EXPECT_FALSE(FeedChecked(&served.conn, wire, &out)) << wire;
  }
  // The largest lengths a request may carry: the header is accepted and
  // the connection waits for the elements or payload, holding only the
  // bytes it was sent (no allocation sized by the header).
  for (const std::string wire : {"*1048576\r\n", "*1\r\n$536870912\r\n"}) {
    Served served;
    std::string out;
    EXPECT_TRUE(FeedChecked(&served.conn, wire, &out)) << wire;
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(served.conn.buffered_bytes(), wire.size());
  }
}

}  // namespace
}  // namespace cuckoograph::redis_sim

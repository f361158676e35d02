// Unit tests for the CG.* CuckooGraph command family, registered on a
// CommandTable over a CuckooGraph and driven through a RespConnection:
// every assertion covers a full serialize-parse-dispatch-reply round
// trip, minus only the socket (tcp_server_test covers that).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cuckoo_graph.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {
namespace {

class CuckooGraphModuleTest : public ::testing::Test {
 protected:
  CuckooGraphModuleTest() { RegisterGraphCommands(&table_, &graph_); }

  // Sends `argv` as a multibulk request and decodes the one reply.
  RespValue Execute(const std::vector<std::string>& argv) {
    return RoundTrip(EncodeCommand(argv));
  }

  // Sends one inline command line, e.g. "CG.QUERY 1 2".
  RespValue ExecuteInline(std::string_view line) {
    return RoundTrip(std::string(line) + "\r\n");
  }

  long long Int(const std::vector<std::string>& argv) {
    const RespValue reply = Execute(argv);
    EXPECT_EQ(reply.type, RespType::kInteger) << reply.text;
    return reply.integer;
  }

  CuckooGraph graph_;
  CommandTable table_;
  RespConnection connection_{&table_};

 private:
  RespValue RoundTrip(const std::string& request) {
    std::string replies;
    EXPECT_TRUE(connection_.Feed(request, &replies)) << replies;
    const ParseResult reply = ParseValue(replies);
    EXPECT_EQ(reply.status, ParseStatus::kOk) << reply.error;
    EXPECT_EQ(reply.consumed, replies.size()) << "more than one reply";
    return reply.value;
  }
};

TEST_F(CuckooGraphModuleTest, InsertQueryDeleteRoundTrip) {
  EXPECT_EQ(Int({"CG.INSERT", "1", "2"}), 1);
  EXPECT_EQ(Int({"CG.INSERT", "1", "2"}), 0);  // duplicate
  EXPECT_EQ(Int({"CG.QUERY", "1", "2"}), 1);
  EXPECT_EQ(Int({"CG.QUERY", "2", "1"}), 0);  // directed
  EXPECT_EQ(Int({"CG.DEL", "1", "2"}), 1);
  EXPECT_EQ(Int({"CG.DEL", "1", "2"}), 0);  // already gone
  EXPECT_EQ(Int({"CG.QUERY", "1", "2"}), 0);
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

TEST_F(CuckooGraphModuleTest, DeleteAliasMatchesDel) {
  EXPECT_EQ(Int({"CG.INSERT", "5", "6"}), 1);
  EXPECT_EQ(Int({"CG.DELETE", "5", "6"}), 1);
  EXPECT_EQ(Int({"CG.QUERY", "5", "6"}), 0);
}

TEST_F(CuckooGraphModuleTest, CommandNamesAreCaseInsensitive) {
  EXPECT_EQ(Int({"cg.insert", "1", "2"}), 1);
  EXPECT_EQ(Int({"Cg.QuErY", "1", "2"}), 1);
}

TEST_F(CuckooGraphModuleTest, DegreeAndNeighbors) {
  for (const char* v : {"10", "11", "12"}) {
    EXPECT_EQ(Int({"CG.INSERT", "7", v}), 1);
  }
  EXPECT_EQ(Int({"CG.DEGREE", "7"}), 3);
  EXPECT_EQ(Int({"CG.DEGREE", "999"}), 0);  // absent vertex

  const RespValue reply = Execute({"CG.NEIGHBORS", "7"});
  ASSERT_EQ(reply.type, RespType::kArray);
  std::vector<std::string> neighbors;
  for (const RespValue& element : reply.elements) {
    ASSERT_EQ(element.type, RespType::kBulkString);
    neighbors.push_back(element.text);
  }
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<std::string>{"10", "11", "12"}));
}

TEST_F(CuckooGraphModuleTest, NeighborsOfAbsentVertexIsEmptyArray) {
  const RespValue reply = Execute({"CG.NEIGHBORS", "424242"});
  ASSERT_EQ(reply.type, RespType::kArray);
  EXPECT_TRUE(reply.elements.empty());
}

TEST_F(CuckooGraphModuleTest, WrongArityIsAnError) {
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"CG.INSERT", "1"},
        std::vector<std::string>{"CG.INSERT", "1", "2", "3"},
        std::vector<std::string>{"CG.QUERY"},
        std::vector<std::string>{"CG.DEGREE", "1", "2"}}) {
    const RespValue reply = Execute(argv);
    EXPECT_TRUE(reply.IsError()) << argv[0];
    EXPECT_NE(reply.text.find("wrong number of arguments"),
              std::string::npos);
  }
  // Arity failures never reach the graph.
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

TEST_F(CuckooGraphModuleTest, NonIntegerNodeIdsAreErrors) {
  for (const char* bad : {"abc", "1.5", "-1", "4294967296", "", "1x"}) {
    const RespValue reply = Execute({"CG.INSERT", bad, "2"});
    EXPECT_TRUE(reply.IsError()) << bad;
    EXPECT_EQ(reply.text, "ERR value is not an integer or out of range");
  }
  EXPECT_EQ(graph_.NumEdges(), 0u);
}

TEST_F(CuckooGraphModuleTest, FullNodeIdRangeIsAccepted) {
  EXPECT_EQ(Int({"CG.INSERT", "0", "4294967295"}), 1);
  EXPECT_EQ(Int({"CG.QUERY", "0", "4294967295"}), 1);
}

TEST_F(CuckooGraphModuleTest, UnknownCommandIsAnError) {
  const RespValue reply = Execute({"CG.NOPE", "1", "2"});
  ASSERT_TRUE(reply.IsError());
  EXPECT_NE(reply.text.find("unknown command 'CG.NOPE'"),
            std::string::npos);
}

TEST_F(CuckooGraphModuleTest, CrlfInCommandNameCannotDesyncTheStream) {
  // A bulk-string command name may legally contain CRLF; the echoed
  // error reply must not split the frame and poison later replies.
  const RespValue reply = Execute({"bad\r\nname", "1"});
  ASSERT_TRUE(reply.IsError());
  EXPECT_EQ(reply.text.find('\r'), std::string::npos);
  EXPECT_EQ(reply.text.find('\n'), std::string::npos);
  EXPECT_EQ(Int({"CG.INSERT", "1", "2"}), 1);  // stream still in sync
}

TEST_F(CuckooGraphModuleTest, InlineCommandsDispatchToo) {
  EXPECT_EQ(ExecuteInline("CG.INSERT 3 4").integer, 1);
  EXPECT_EQ(ExecuteInline("CG.QUERY 3 4").integer, 1);
}

// The reply each CG.* command produced when handlers returned a
// RespValue instead of appending bytes, rebuilt from the graph as it
// stands before the command runs: the differential oracle for the
// appending handlers below.
RespValue ReferenceReply(const GraphStore& graph,
                         const std::vector<std::string>& argv) {
  static const std::vector<std::pair<std::string, size_t>> kArity = {
      {"CG.INSERT", 3}, {"CG.DEL", 3},    {"CG.DELETE", 3},
      {"CG.QUERY", 3},  {"CG.DEGREE", 2}, {"CG.NEIGHBORS", 2}};
  std::string name = argv[0];
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  const auto known = std::find_if(
      kArity.begin(), kArity.end(),
      [&name](const auto& entry) { return entry.first == name; });
  if (known == kArity.end()) {
    return RespValue::Error("ERR unknown command '" + argv[0] + "'");
  }
  if (argv.size() != known->second) {
    std::string lower = argv[0];
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return RespValue::Error("ERR wrong number of arguments for '" + lower +
                            "' command");
  }
  std::vector<NodeId> ids;
  for (size_t i = 1; i < argv.size(); ++i) {
    const std::string& s = argv[i];
    const bool digits = !s.empty() && s.size() <= 10 &&
                        std::all_of(s.begin(), s.end(), [](char c) {
                          return c >= '0' && c <= '9';
                        });
    if (!digits || std::stoull(s) > 0xffffffffull) {
      return RespValue::Error("ERR value is not an integer or out of range");
    }
    ids.push_back(static_cast<NodeId>(std::stoull(s)));
  }
  if (name == "CG.DEGREE") {
    return RespValue::Integer(static_cast<long long>(graph.OutDegree(ids[0])));
  }
  if (name == "CG.NEIGHBORS") {
    std::vector<RespValue> elements;
    graph.ForEachNeighbor(ids[0], [&elements](NodeId v) {
      elements.push_back(RespValue::Bulk(std::to_string(v)));
    });
    return RespValue::Array(std::move(elements));
  }
  const bool present = graph.QueryEdge(ids[0], ids[1]);
  return RespValue::Integer(name == "CG.INSERT" ? !present : present);
}

TEST_F(CuckooGraphModuleTest, AppendedRepliesMatchEncodedReferenceValues) {
  std::vector<std::vector<std::string>> script;
  // Degrees 0, 1, 12 and 123 (multi-digit integer replies), built up by
  // inserts that answer 1 and then 0 as duplicates.
  for (const auto& [u, degree] :
       {std::pair<int, int>{5, 1}, {6, 12}, {7, 123}}) {
    for (int v = 0; v < degree; ++v) {
      script.push_back({"CG.INSERT", std::to_string(u), std::to_string(v)});
    }
    script.push_back({"CG.INSERT", std::to_string(u), "0"});
  }
  for (const char* u : {"4", "5", "6", "7"}) {
    script.push_back({"CG.DEGREE", u});
    script.push_back({"CG.NEIGHBORS", u});  // empty, 1 and many elements
  }
  for (const char* v : {"0", "11", "12", "4294967295"}) {
    script.push_back({"CG.QUERY", "6", v});
    script.push_back({"cg.query", "0", v});
  }
  script.push_back({"CG.DEL", "6", "11"});
  script.push_back({"CG.DELETE", "6", "11"});
  script.push_back({"Cg.Degree", "6"});
  for (const char* bad :
       {"abc", "-1", "1.5", "4294967296", "", "00000000001"}) {
    script.push_back({"CG.INSERT", bad, "1"});
    script.push_back({"CG.QUERY", "1", bad});
    script.push_back({"CG.DEL", bad, bad});
    script.push_back({"CG.DEGREE", bad});
    script.push_back({"CG.NEIGHBORS", bad});
  }
  script.push_back({"CG.NOPE", "1", "2"});
  script.push_back({"bad\r\nname"});
  script.push_back({"CG.INSERT", "1"});
  script.push_back({"CG.QUERY", "1", "2", "3"});
  script.push_back({"CG.DEGREE"});
  script.push_back({"cg.neighbors", "1", "2"});

  for (const std::vector<std::string>& argv : script) {
    const std::string want = Encode(ReferenceReply(graph_, argv));
    std::string got;
    ASSERT_TRUE(connection_.Feed(EncodeCommand(argv), &got));
    EXPECT_EQ(got, want) << argv[0] << " " << (argv.size() > 1 ? argv[1] : "");
  }
  // The decoded Dispatch wrapper answers the same bytes.
  for (const std::vector<std::string>& argv : script) {
    if (argv[0] == "CG.INSERT" || argv[0] == "CG.DEL" ||
        argv[0] == "CG.DELETE") {
      continue;  // mutations: replayed above already
    }
    const std::vector<std::string_view> views(argv.begin(), argv.end());
    EXPECT_EQ(Encode(table_.Dispatch(Span<const std::string_view>(views))),
              Encode(ReferenceReply(graph_, argv)))
        << argv[0];
  }
}

TEST_F(CuckooGraphModuleTest, ServerStatsCountTraffic) {
  Int({"CG.INSERT", "1", "2"});
  Execute({"CG.NOPE"});
  const RespConnection::Stats& stats = connection_.stats();
  EXPECT_EQ(stats.commands, 2u);
  EXPECT_EQ(stats.error_replies, 1u);
  EXPECT_EQ(graph_.NumEdges(), 1u);  // CG.NOPE never reached a handler
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

}  // namespace
}  // namespace cuckoograph::redis_sim

// Unit tests for the CG.* CuckooGraph command family, registered on a
// CommandTable over a CuckooGraph and driven through a RespConnection:
// every assertion covers a full serialize-parse-dispatch-reply round
// trip, minus only the socket (tcp_server_test covers that).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
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

TEST_F(CuckooGraphModuleTest, ServerStatsCountTraffic) {
  Int({"CG.INSERT", "1", "2"});
  Execute({"CG.NOPE"});
  EXPECT_EQ(table_.commands_dispatched(), 1u);  // CG.NOPE never dispatched
  EXPECT_EQ(table_.dispatch_errors(), 1u);
  const RespConnection::Stats& stats = connection_.stats();
  EXPECT_EQ(stats.commands, 2u);
  EXPECT_EQ(stats.error_replies, 1u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
}

}  // namespace
}  // namespace cuckoograph::redis_sim

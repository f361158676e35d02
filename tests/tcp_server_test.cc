// Loopback tests for the epoll TCP RESP server: single round trips,
// pipelining, torn-frame (1-byte-at-a-time) slow clients, protocol-error
// disconnects, and the concurrency smoke the sim cannot provide — four
// client threads driving pipelined CG.INSERT/CG.QUERY against a sharded
// store, every reply checked against a single-threaded oracle, and fd
// exhaustion (clients refused without spinning the acceptor), and a
// client that never reads its replies (paused, not buffered). These
// suites run under the CI TSan job (see the -R filter in ci.yml).
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/errno_string.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/sharded_cuckoo_graph.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "server/resp_client.h"
#include "server/tcp_server.h"

namespace cuckoograph::server {
namespace {

using redis_sim::CommandTable;
using redis_sim::RespType;
using redis_sim::RespValue;

class TcpRespServerTest : public ::testing::Test {
 protected:
  // Every test serves the CG.* family over a sharded (thread-safe) store
  // from two worker loops, on an ephemeral loopback port.
  void StartServer(int num_workers = 2) {
    redis_sim::RegisterGraphCommands(&table_, &store_);
    ServerConfig config;
    config.num_workers = num_workers;
    server_ = std::make_unique<TcpRespServer>(config, &table_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  RespClient Connect() {
    RespClient client;
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port(), &error))
        << error;
    return client;
  }

  ShardedCuckooGraph store_;
  CommandTable table_;
  std::unique_ptr<TcpRespServer> server_;
};

TEST_F(TcpRespServerTest, SingleRoundTripOverLoopback) {
  StartServer();
  RespClient client = Connect();
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 1);
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 0);
  EXPECT_EQ(client.Execute({"CG.QUERY", "1", "2"}).integer, 1);
  EXPECT_EQ(client.Execute({"CG.DEL", "1", "2"}).integer, 1);
  EXPECT_EQ(client.Execute({"CG.QUERY", "1", "2"}).integer, 0);
  EXPECT_EQ(store_.NumEdges(), 0u);
}

TEST_F(TcpRespServerTest, ServerSideErrorsComeBackAsErrorReplies) {
  StartServer();
  RespClient client = Connect();
  EXPECT_TRUE(client.Execute({"CG.NOPE"}).IsError());
  EXPECT_TRUE(client.Execute({"CG.INSERT", "1"}).IsError());
  EXPECT_TRUE(client.Execute({"CG.INSERT", "abc", "2"}).IsError());
  // The connection survives command-level errors.
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 1);
}

TEST_F(TcpRespServerTest, PipelinedBurstAnswersInOrder) {
  StartServer();
  RespClient client = Connect();
  for (int i = 0; i < 100; ++i) {
    client.Pipeline({"CG.INSERT", "7", std::to_string(i)});
  }
  client.Pipeline({"CG.DEGREE", "7"});
  const std::vector<RespValue> replies = client.Flush();
  ASSERT_EQ(replies.size(), 101u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(replies[static_cast<size_t>(i)].integer, 1) << i;
  }
  EXPECT_EQ(replies[100].integer, 100);

  // A burst several read-chunks (16 KiB) deep: the server takes it in
  // one recv per readiness event, a command torn across two chunks
  // waits in the connection's buffer, and every chunk's replies append
  // to the one reply buffer the flush path sends from. Every reply is
  // position-checked, so a dropped, duplicated or reordered reply
  // cannot pass.
  constexpr int kDeepBurst = 4000;  // ~80 KiB of request wire
  for (int i = 0; i < kDeepBurst; ++i) {
    client.Pipeline({"CG.QUERY", "7", std::to_string(i % 200)});
  }
  const std::vector<RespValue> deep = client.Flush();
  ASSERT_EQ(deep.size(), static_cast<size_t>(kDeepBurst));
  for (int i = 0; i < kDeepBurst; ++i) {
    EXPECT_EQ(deep[static_cast<size_t>(i)].integer, i % 200 < 100 ? 1 : 0)
        << i;
  }
  // The per-worker byte counters see every reply byte, whatever the
  // syscall shape. The worker bumps its counter after send returns, so
  // on a loaded single-core box the
  // client can finish reading before the worker is rescheduled to
  // account the bytes — poll briefly instead of racing it.
  const uint64_t min_bytes = static_cast<uint64_t>(kDeepBurst) * 4;  // ":0\r\n"
  uint64_t bytes_out = 0;
  for (int spin = 0; spin < 2000; ++spin) {
    bytes_out = server_->stats().bytes_out;
    if (bytes_out >= min_bytes) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(bytes_out, min_bytes);
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(TcpRespServerTest, TornFramesFromASlowClientReassemble) {
  StartServer();
  RespClient client = Connect();
  // Three pipelined requests written one byte at a time: the server must
  // reassemble frames across arbitrarily small reads and answer all
  // three, in order.
  const std::string wire = redis_sim::EncodeCommand({"CG.INSERT", "3", "4"}) +
                           redis_sim::EncodeCommand({"CG.QUERY", "3", "4"}) +
                           redis_sim::EncodeCommand({"CG.QUERY", "9", "9"});
  for (const char c : wire) {
    ASSERT_TRUE(client.SendRaw(std::string_view(&c, 1)));
  }
  EXPECT_EQ(client.ReadReply().integer, 1);
  EXPECT_EQ(client.ReadReply().integer, 1);
  EXPECT_EQ(client.ReadReply().integer, 0);

  // A longer unread pipeline, still one byte per write: frames complete
  // on different recv chunks, so replies reach the reply buffer a few
  // bytes at a time and must still leave it in order (the client reads
  // nothing until every byte is on the wire).
  std::string burst;
  for (int i = 0; i < 64; ++i) {
    burst += redis_sim::EncodeCommand({"CG.QUERY", "3", std::to_string(i)});
  }
  for (const char c : burst) {
    ASSERT_TRUE(client.SendRaw(std::string_view(&c, 1)));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(client.ReadReply().integer, i == 4 ? 1 : 0) << i;
  }
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(TcpRespServerTest, InlineCommandsWorkOverTheSocket) {
  StartServer();
  RespClient client = Connect();
  ASSERT_TRUE(client.SendRaw("CG.INSERT 5 6\r\n"));
  EXPECT_EQ(client.ReadReply().integer, 1);
  ASSERT_TRUE(client.SendRaw("CG.QUERY 5 6\r\n"));
  EXPECT_EQ(client.ReadReply().integer, 1);
}

TEST_F(TcpRespServerTest, ProtocolErrorRepliesThenClosesTheConnection) {
  StartServer();
  RespClient bad = Connect();
  ASSERT_TRUE(bad.SendRaw("*1\r\n:5\r\n"));
  const RespValue reply = bad.ReadReply();
  ASSERT_TRUE(reply.IsError());
  EXPECT_NE(reply.text.find("Protocol error"), std::string::npos);
  // Unlike the in-process sim, the server then drops the client.
  EXPECT_THROW(bad.ReadReply(), std::runtime_error);

  // Other connections are unaffected.
  RespClient good = Connect();
  EXPECT_EQ(good.Execute({"CG.INSERT", "1", "2"}).integer, 1);
}

// A client that pipelines requests and reads none of their replies
// must not grow the server's reply buffer without bound: once more than
// kMaxPendingReplyBytes of replies are unsent the server stops reading
// from it, and once the client reads, every reply still arrives in
// order.
TEST_F(TcpRespServerTest, ClientThatNeverReadsIsPausedNotBuffered) {
  StartServer(1);
  for (int v = 0; v < 100; ++v) store_.InsertEdge(7, static_cast<NodeId>(v));
  const std::string neighbors =
      redis_sim::Encode(Connect().Execute({"CG.NEIGHBORS", "7"}));

  // ~10 MB of replies, more than the loopback socket buffers (up to
  // 4 MB for the send side by default) plus kMaxPendingReplyBytes can
  // hold: each ~800-byte CG.NEIGHBORS reply grows the backlog fast, and
  // the CG.QUERY after it makes the expected stream position-dependent.
  constexpr size_t kRounds = 12'000;
  SplitMix64 rng(5);
  std::string wire;
  std::string want;
  for (size_t i = 0; i < kRounds; ++i) {
    const uint64_t v = rng.NextBelow(200);
    wire += redis_sim::EncodeCommand({"CG.NEIGHBORS", "7"});
    wire += redis_sim::EncodeCommand({"CG.QUERY", "7", std::to_string(v)});
    want += neighbors;
    want += v < 100 ? ":1\r\n" : ":0\r\n";
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  struct CloseFd {
    int fd;
    ~CloseFd() { ::close(fd); }
  } close_fd{fd};
  // A small receive window keeps the kernel from absorbing the replies
  // the test wants held in the server's buffer.
  const int rcvbuf = 16 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << ErrnoString(errno);

  // The writer may block once the server stops reading; it finishes at
  // the latest when the reader below drains the replies.
  std::atomic<bool> sent_all{false};
  std::thread writer([fd, &wire, &sent_all] {
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
    sent_all.store(true);
  });
  struct JoinWriter {
    std::thread* t;
    int fd;
    ~JoinWriter() {
      if (t->joinable()) {
        ::shutdown(fd, SHUT_RDWR);  // unblocks a writer stuck in send
        t->join();
      }
    }
  } join_writer{&writer, fd};

  uint64_t pauses = 0;
  for (int spin = 0; spin < 20'000 && pauses == 0; ++spin) {
    pauses = server_->stats().read_pauses;
    if (pauses == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(pauses, 0u) << "the server kept reading a client that never reads";

  std::string got;
  got.reserve(want.size());
  char buffer[64 * 1024];
  while (got.size() < want.size()) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << "connection closed after " << got.size() << " bytes";
    got.append(buffer, static_cast<size_t>(n));
  }
  writer.join();
  EXPECT_TRUE(sent_all.load());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want) << "replies arrived out of order";
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(TcpRespServerTest, FourThreadedPipelinedClientsMatchOracle) {
  StartServer(/*num_workers=*/2);
  constexpr int kClients = 4;
  constexpr size_t kOpsPerClient = 2000;
  constexpr size_t kPipelineDepth = 32;
  constexpr NodeId kRange = 64;  // small: plenty of duplicate traffic

  // Each client owns a private source range, so a sequential replay of
  // its op stream is an exact oracle for every reply it receives, no
  // matter how the other clients' commands interleave server-side.
  std::vector<int> failures(kClients, 0);
  std::vector<std::unordered_set<uint64_t>> oracles(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures, &oracles] {
      RespClient client = Connect();
      SplitMix64 rng(77 + static_cast<uint64_t>(c));
      std::unordered_set<uint64_t>& oracle = oracles[static_cast<size_t>(c)];
      std::vector<long long> expected;
      size_t in_flight = 0;
      const auto check_flush = [&] {
        const std::vector<RespValue> replies = client.Flush();
        for (size_t i = 0; i < replies.size(); ++i) {
          if (replies[i].type != RespType::kInteger ||
              replies[i].integer != expected[i]) {
            ++failures[static_cast<size_t>(c)];
          }
        }
        expected.clear();
        in_flight = 0;
      };
      for (size_t i = 0; i < kOpsPerClient; ++i) {
        const NodeId u = static_cast<NodeId>(1000 + c) * 1000 +
                         rng.NextBelow(kRange);
        const NodeId v = rng.NextBelow(kRange);
        const uint64_t kind = rng.NextBelow64(3);
        const uint64_t key = EdgeKey(Edge{u, v});
        if (kind == 0) {
          client.Pipeline({"CG.QUERY", std::to_string(u), std::to_string(v)});
          expected.push_back(oracle.count(key) != 0 ? 1 : 0);
        } else if (kind == 1) {
          client.Pipeline({"CG.DEL", std::to_string(u), std::to_string(v)});
          expected.push_back(oracle.erase(key) != 0 ? 1 : 0);
        } else {
          client.Pipeline(
              {"CG.INSERT", std::to_string(u), std::to_string(v)});
          expected.push_back(oracle.insert(key).second ? 1 : 0);
        }
        if (++in_flight == kPipelineDepth) check_flush();
      }
      if (in_flight > 0) check_flush();
    });
  }
  for (std::thread& t : threads) t.join();

  size_t expected_edges = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<size_t>(c)], 0)
        << "client " << c << " saw replies diverge from its oracle";
    expected_edges += oracles[static_cast<size_t>(c)].size();
  }
  EXPECT_EQ(store_.NumEdges(), expected_edges);
  EXPECT_GE(server_->stats().connections_accepted, 4u);
}

TEST_F(TcpRespServerTest, BindFailureReportsAReadableErrnoMessage) {
  StartServer();
  // A second server on the same port must fail to bind, and the error
  // must carry the failing syscall plus a real message (the thread-safe
  // ErrnoString path — e.g. "bind: Address already in use"), not an
  // empty or garbage string.
  ServerConfig config;
  config.port = server_->port();
  TcpRespServer second(config, &table_);
  std::string error;
  EXPECT_FALSE(second.Start(&error));
  EXPECT_NE(error.find("bind: "), std::string::npos) << error;
  EXPECT_GT(error.size(), std::string("bind: ").size()) << error;
}

TEST_F(TcpRespServerTest, StopWhileClientsAreConnectedShutsDownCleanly) {
  StartServer();
  RespClient client = Connect();
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 1);
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The dropped client notices on its next read.
  EXPECT_THROW(client.Execute({"CG.QUERY", "1", "2"}), std::runtime_error);
}

TEST_F(TcpRespServerTest, SignalStormDoesNotDisruptService) {
  // A no-op SIGUSR1 handler installed WITHOUT SA_RESTART makes every
  // interrupted syscall return EINTR instead of transparently resuming
  // — the regression proof for the retry loops around the server's
  // eventfd ring/drain, epoll_wait, and the client's socket I/O. A
  // missing retry shows up as a lost wakeup (hang), a short frame, or a
  // spurious disconnect.
  struct sigaction noop {};
  struct sigaction previous {};
  noop.sa_handler = [](int) {};
  sigemptyset(&noop.sa_mask);
  noop.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &noop, &previous), 0);

  StartServer();
  std::atomic<bool> storming{true};
  std::thread storm([&storming] {
    while (storming.load(std::memory_order_relaxed)) {
      ::kill(::getpid(), SIGUSR1);  // lands on an arbitrary thread
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Stops and joins the storm on every early way out: a failed ASSERT or
  // a thrown client error leaves the test body, and destroying a joinable
  // std::thread would call std::terminate.
  class StormJoiner {
   public:
    StormJoiner(std::atomic<bool>* storming, std::thread* storm)
        : storming_(storming), storm_(storm) {}
    ~StormJoiner() {
      storming_->store(false, std::memory_order_relaxed);
      if (storm_->joinable()) storm_->join();
    }
    StormJoiner(const StormJoiner&) = delete;
    StormJoiner& operator=(const StormJoiner&) = delete;

   private:
    std::atomic<bool>* storming_;
    std::thread* storm_;
  } joiner(&storming, &storm);

  RespClient client = Connect();
  for (uint32_t v = 0; v < 400; ++v) {
    ASSERT_EQ(client.Execute({"CG.INSERT", "9", std::to_string(v)}).integer,
              1)
        << v;
  }
  for (uint32_t v = 0; v < 400; ++v) {
    ASSERT_EQ(client.Execute({"CG.QUERY", "9", std::to_string(v)}).integer, 1)
        << v;
  }
  // Shut down while signals still fly: Stop()'s eventfd ring is in the
  // blast radius too.
  server_->Stop();
  EXPECT_FALSE(server_->running());

  storming.store(false, std::memory_order_relaxed);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
  EXPECT_EQ(store_.NumEdges(), 400u);
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

TEST_F(TcpRespServerTest, OutOfFdsRefusesClientsWithoutSpinning) {
  StartServer(1);
  // Lower this process's fd limit a few fds above what is open now, and
  // fill the gap with client sockets: the server then has no fd left to
  // accept into. Both the limit and the sockets are undone on every way
  // out, so a failed ASSERT cannot starve the rest of the run.
  struct Restore {
    rlimit limit{};
    std::vector<int> fds;
    ~Restore() {
      for (const int fd : fds) ::close(fd);
      ::setrlimit(RLIMIT_NOFILE, &limit);
    }
  } restore;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &restore.limit), 0);
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit low = restore.limit;
  low.rlim_cur = static_cast<rlim_t>(lowest_free) + 4;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      ASSERT_EQ(errno, EMFILE);
      break;
    }
    restore.fds.push_back(fd);
    ASSERT_LE(restore.fds.size(), 4u);
  }
  ASSERT_GE(restore.fds.size(), 2u);

  // Two clients connect (the handshake completes in the kernel backlog)
  // and must each be accepted and closed, while the server stays idle.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const double cpu_start = ProcessCpuSeconds();
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(::connect(restore.fds[i], reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << ErrnoString(errno);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_s = ProcessCpuSeconds() - cpu_start;
  EXPECT_EQ(server_->stats().connections_refused, 2u);
  EXPECT_EQ(server_->stats().connections_accepted, 0u);
  // A spinning acceptor burns a core for the whole 300 ms window.
  EXPECT_LT(cpu_s, 0.1) << "the acceptor spun on the readable listener";
  for (size_t i = 0; i < 2; ++i) {
    pollfd pfd{restore.fds[i], POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 2000), 1) << "refused client never closed";
    char byte;
    EXPECT_LE(::recv(restore.fds[i], &byte, 1, 0), 0);  // EOF or reset
  }

  // With fds back, a new client is served.
  for (const int fd : restore.fds) ::close(fd);
  restore.fds.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &restore.limit), 0);
  RespClient client = Connect();
  EXPECT_EQ(client.Execute({"CG.INSERT", "1", "2"}).integer, 1);
  EXPECT_EQ(server_->stats().connections_refused, 2u);
  EXPECT_EQ(server_->stats().connections_accepted, 1u);
}

}  // namespace
}  // namespace cuckoograph::server

// The served stage: a TcpRespServer (2 workers) in front of a
// CommandTable over a ShardedCuckooGraph, driven by closed-loop client
// threads that each send one pipelined batch and wait for its replies.
// Requests and the expected reply bytes are made in setup; replies are
// compared byte for byte.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "core/sharded_cuckoo_graph.h"
#include "redis_sim/command_table.h"
#include "redis_sim/cuckoograph_module.h"
#include "server/tcp_server.h"
#include "stages.h"
#include "timing_store.h"

namespace perfbench {
namespace {

using cuckoograph::ShardedCuckooGraph;
using cuckoograph::redis_sim::CommandTable;
using cuckoograph::redis_sim::RespConnection;

constexpr int kServerWorkers = 2;
constexpr uint64_t kWindowNs = 250000000;  // served_kops rate window
constexpr double kSliceS = 1.0;            // closed-loop time per unit
constexpr int kReplyTimeoutS = 20;

struct Cpu {
  double user_s = 0, sys_s = 0;
  double csw = 0;
};

Cpu ReadCpu(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Cpu c;
  c.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  c.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  c.csw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return c;
}

Cpu Minus(const Cpu& a, const Cpu& b) {
  return Cpu{a.user_s - b.user_s, a.sys_s - b.sys_s, a.csw - b.csw};
}

void Add(const Cpu& from, Cpu* to) {
  to->user_s += from.user_s;
  to->sys_s += from.sys_s;
  to->csw += from.csw;
}

class Socket {
 public:
  Socket() = default;
  ~Socket() {
    if (fd_ >= 0) close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  void Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{kReplyTimeoutS, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int rc;
    do {
      rc = connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) throw std::runtime_error("connect to the served stage failed");
  }

  bool SendAll(const char* data, size_t n) {
    while (n > 0) {
      const ssize_t w = send(fd_, data, n, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      data += w;
      n -= static_cast<size_t>(w);
    }
    return true;
  }

  bool RecvAll(char* data, size_t n) {
    while (n > 0) {
      const ssize_t r = recv(fd_, data, n, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      data += r;
      n -= static_cast<size_t>(r);
    }
    return true;
  }

 private:
  int fd_ = -1;
};

struct ClientResult {
  std::vector<uint64_t> rtt_ns;   // per batch round trip
  std::vector<uint64_t> done_ns;  // per batch completion time
  uint64_t batches = 0;
  uint64_t failed_batches = 0;
  std::string error;
  Cpu cpu;
};

// Closed loop: send batch b, wait for all of its replies, compare, repeat.
// `*cursor` is the next batch of the connection's cycle, kept across calls
// because the store's state follows the cycle.
void ClientLoop(Socket* sock, const ServedConnection& conn, uint64_t deadline,
                Tracer* tracer, uint32_t tid, size_t* cursor,
                ClientResult* out) {
  const Cpu start = ReadCpu(RUSAGE_THREAD);
  const size_t num_batches = conn.request_offsets.size() - 1;
  std::string got;
  size_t b = *cursor;
  for (; NowNs() < deadline; b = (b + 1) % num_batches) {
    const size_t req = conn.request_offsets[b];
    const size_t rep = conn.reply_offsets[b];
    const size_t rep_len = conn.reply_offsets[b + 1] - rep;
    got.resize(rep_len);
    const uint64_t t0 = NowNs();
    if (!sock->SendAll(conn.request_bytes.data() + req,
                       conn.request_offsets[b + 1] - req) ||
        !sock->RecvAll(&got[0], rep_len)) {
      out->error = "served: connection failed or timed out";
      ++out->failed_batches;
      break;
    }
    const uint64_t t1 = NowNs();
    if (std::memcmp(got.data(), conn.reply_bytes.data() + rep, rep_len) != 0) {
      out->error = "served: reply bytes differ from the oracle in batch " +
                   std::to_string(b);
      ++out->failed_batches;
      break;  // the stream may be out of step now; stop this client
    }
    if (tracer != nullptr && tracer->enabled()) {
      tracer->Add("served.batch", out->batches + 1 + (uint64_t{tid} << 40), 0,
                  t0, t1, tid);
    }
    out->rtt_ns.push_back(t1 - t0);
    out->done_ns.push_back(t1);
    ++out->batches;
  }
  *cursor = b;
  out->cpu = Minus(ReadCpu(RUSAGE_THREAD), start);
}

struct LoopResult {
  Series window_kops;  // per full window
  Series window_p99_us, window_p50_us;  // per window with a p99
  size_t rtt_samples = 0;
  uint64_t ops = 0, batches = 0;
  Cpu server, clients;
  uint64_t failed_batches = 0;
  std::string error;
};

}  // namespace

// Declaration order is teardown order in reverse: clients and server go
// before the table and store they use.
struct ServedStage::Live {
  StoreTimings timings;  // filled when the store is wrapped
  std::unique_ptr<cuckoograph::GraphStore> store;
  ShardedCuckooGraph* sharded = nullptr;
  CommandTable table;
  std::unique_ptr<cuckoograph::server::TcpRespServer> server;
  std::vector<std::unique_ptr<Socket>> sockets;
};

void ServedStage::Stop() {
  if (live_ == nullptr) return;
  live_->sockets.clear();
  if (live_->server) live_->server->Stop();
  live_.reset();
}

void ServedStage::Start(bool timed_store, Tracer* tracer) {
  Stop();
  live_ = std::make_unique<Live>();
  auto sharded = std::make_unique<ShardedCuckooGraph>();
  live_->sharded = sharded.get();
  if (timed_store) {
    live_->store = std::make_unique<TimingStore>(std::move(sharded),
                                                 &live_->timings, tracer);
  } else {
    live_->store = std::move(sharded);
  }
  for (const ServedConnection& c : conns_) {
    const size_t n = live_->sharded->InsertEdges(
        cuckoograph::Span<const Edge>(c.preload));
    if (n != c.preload.size()) throw std::logic_error("served preload failed");
  }
  cuckoograph::redis_sim::RegisterGraphCommands(&live_->table,
                                                live_->store.get());
  cuckoograph::server::ServerConfig config;
  config.num_workers = kServerWorkers;
  live_->server = std::make_unique<cuckoograph::server::TcpRespServer>(
      config, &live_->table);
  std::string error;
  if (!live_->server->Start(&error)) {
    throw std::runtime_error("served: server start failed: " + error);
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    live_->sockets.push_back(std::make_unique<Socket>());
    live_->sockets.back()->Connect(live_->server->port());
  }
}

void ServedStage::Setup(uint64_t seed) {
  Stop();
  MakeServedInputs(spec_, seed, &conns_);
  Start(false, nullptr);
}

namespace {

LoopResult RunLoop(const std::vector<ServedConnection>& conns,
                   std::vector<std::unique_ptr<Socket>>& sockets,
                   std::vector<size_t>* cursors, double seconds,
                   Tracer* tracer, size_t depth) {
  std::vector<ClientResult> results(conns.size());
  const Cpu proc0 = ReadCpu(RUSAGE_SELF);
  const Cpu main0 = ReadCpu(RUSAGE_THREAD);
  std::vector<CpuStat> stats = {ReadCpuStat()};
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back(ClientLoop, sockets[c].get(), std::cref(conns[c]),
                           deadline, tracer, static_cast<uint32_t>(c + 1),
                           &(*cursors)[c], &results[c]);
    }
    // Read the host's steal at every window boundary while clients run.
    for (uint64_t b = start + kWindowNs; b <= deadline; b += kWindowNs) {
      const uint64_t now = NowNs();
      if (b > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(b - now));
      }
      stats.push_back(ReadCpuStat());
    }
    for (std::thread& t : threads) t.join();
  }
  const uint64_t end = NowNs();
  const Cpu proc = Minus(ReadCpu(RUSAGE_SELF), proc0);
  const Cpu main = Minus(ReadCpu(RUSAGE_THREAD), main0);

  LoopResult r;
  const size_t windows =
      std::min<size_t>((end - start) / kWindowNs, stats.size() - 1);
  std::vector<double> per_window(windows, 0.0);
  std::vector<std::vector<double>> window_rtts(windows);
  for (const ClientResult& c : results) {
    r.batches += c.batches;
    r.failed_batches += c.failed_batches;
    if (r.error.empty()) r.error = c.error;
    Add(c.cpu, &r.clients);
    for (size_t i = 0; i < c.done_ns.size(); ++i) {
      const size_t w = (c.done_ns[i] - start) / kWindowNs;
      if (w >= windows) continue;  // the trailing partial window
      per_window[w] += static_cast<double>(depth);
      window_rtts[w].push_back(static_cast<double>(c.rtt_ns[i]) / 1e3);
    }
  }
  for (size_t w = 0; w < windows; ++w) {
    const double steal = StealShare(stats[w], stats[w + 1]);
    r.window_kops.values.push_back(
        per_window[w] / (static_cast<double>(kWindowNs) / 1e9) / 1e3);
    r.window_kops.Tag(steal);
    // A window's p99 counts only with at least ten samples beyond it.
    if (window_rtts[w].size() < 1000) continue;
    r.window_p99_us.values.push_back(Percentile(window_rtts[w], 0.99));
    r.window_p99_us.Tag(steal);
    r.window_p50_us.values.push_back(Percentile(window_rtts[w], 0.5));
    r.window_p50_us.Tag(steal);
    r.rtt_samples += window_rtts[w].size();
  }
  r.ops = r.batches * depth;
  r.server = Minus(Minus(proc, r.clients), main);
  return r;
}

// Replays every connection's cycle in-process through RespConnection::Feed
// and then CommandTable::Dispatch on pre-split argv, over a fresh store with
// the same preload; both replays are checked against the oracle.
struct Replay {
  double feed_ns_per_op = 0, dispatch_ns_per_op = 0;
  double bytes_in_per_op = 0, bytes_out_per_op = 0;
};

Replay ReplayInProcess(const std::vector<ServedConnection>& conns,
                       size_t depth, Failures* f) {
  ShardedCuckooGraph store;
  for (const ServedConnection& c : conns) {
    store.InsertEdges(cuckoograph::Span<const Edge>(c.preload));
  }
  CommandTable table;
  cuckoograph::redis_sim::RegisterGraphCommands(&table, &store);
  Replay r;
  uint64_t feed_ns = 0, dispatch_ns = 0, ops = 0, bytes_in = 0, bytes_out = 0;
  for (const ServedConnection& c : conns) {
    RespConnection rc(&table);
    std::string out;
    uint64_t bad = 0;
    const size_t num_batches = c.request_offsets.size() - 1;
    for (size_t b = 0; b < num_batches; ++b) {
      out.clear();
      const std::string_view req(
          c.request_bytes.data() + c.request_offsets[b],
          c.request_offsets[b + 1] - c.request_offsets[b]);
      const uint64_t t0 = NowNs();
      const bool ok = rc.Feed(req, &out);
      feed_ns += NowNs() - t0;
      const std::string_view want(c.reply_bytes.data() + c.reply_offsets[b],
                                  c.reply_offsets[b + 1] - c.reply_offsets[b]);
      if (!ok || out != want) ++bad;
    }
    f->Count(c.commands.size(), bad * depth, "redis_sim: Feed replay differs");
    bytes_in += rc.stats().bytes_in;
    bytes_out += rc.stats().bytes_out;
    ops += c.commands.size();

    // Pre-split argv; the pool is complete before any view is taken.
    std::vector<std::array<std::string, 3>> pool(c.commands.size());
    std::vector<long long> want(c.commands.size());
    static const char* kNames[] = {"CG.QUERY", "CG.DEGREE", "CG.INSERT",
                                   "CG.DEL"};
    size_t pos = 0;
    for (size_t i = 0; i < c.commands.size(); ++i) {
      const ServedCommand& cmd = c.commands[i];
      pool[i] = {kNames[static_cast<int>(cmd.op)], std::to_string(cmd.u),
                 std::to_string(cmd.v)};
      const size_t eol = c.reply_bytes.find('\r', pos);
      want[i] = std::stoll(c.reply_bytes.substr(pos + 1, eol - pos - 1));
      pos = eol + 2;
    }
    std::vector<std::array<std::string_view, 3>> argv(c.commands.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      argv[i] = {pool[i][0], pool[i][1], pool[i][2]};
    }
    bad = 0;
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < argv.size(); ++i) {
      const size_t argc = c.commands[i].op == ServedOp::kDegree ? 2 : 3;
      const auto reply = table.Dispatch(
          cuckoograph::Span<const std::string_view>(argv[i].data(), argc));
      bad += reply.integer == want[i] &&
                     reply.type == cuckoograph::redis_sim::RespType::kInteger
                 ? 0
                 : 1;
    }
    dispatch_ns += NowNs() - t0;
    f->Count(c.commands.size(), bad, "redis_sim: Dispatch replay differs");
  }
  const double n = static_cast<double>(ops);
  r.feed_ns_per_op = static_cast<double>(feed_ns) / n;
  r.dispatch_ns_per_op = static_cast<double>(dispatch_ns) / n;
  r.bytes_in_per_op = static_cast<double>(bytes_in) / n;
  r.bytes_out_per_op = static_cast<double>(bytes_out) / n;
  return r;
}

}  // namespace

struct ServedStage::Samples {
  std::vector<size_t> cursors;  // next batch per connection
  bool timed = false;           // the live store is wrapped
  LoopResult plain, traced;     // accumulated over slices
  uint64_t optimistic = 0, locked = 0;
  uint64_t slices = 0;
  Replay replay;  // in-process replay, run once when tracing starts
};

ServedStage::ServedStage(const ServedSpec& spec)
    : spec_(spec), samples_(std::make_unique<Samples>()) {}
ServedStage::~ServedStage() { Stop(); }

namespace {

void Accumulate(const LoopResult& slice, LoopResult* total) {
  total->window_kops.Append(slice.window_kops);
  total->window_p99_us.Append(slice.window_p99_us);
  total->window_p50_us.Append(slice.window_p50_us);
  total->rtt_samples += slice.rtt_samples;
  total->ops += slice.ops;
  total->batches += slice.batches;
  total->failed_batches += slice.failed_batches;
  Add(slice.server, &total->server);
  Add(slice.clients, &total->clients);
  if (total->error.empty()) total->error = slice.error;
}

}  // namespace

double ServedStage::RunUnit(const RunOptions& opts, bool traced, Failures* f) {
  Samples& s = *samples_;
  if (traced && !s.timed) {
    // The traced slices run against a fresh store wrapped in the timing
    // decorator, with a span per batch.
    s.replay = ReplayInProcess(conns_, spec_.depth, f);
    Start(true, opts.tracer);
    s.timed = true;
    s.cursors.assign(conns_.size(), 0);
  }
  if (s.cursors.size() != conns_.size()) s.cursors.assign(conns_.size(), 0);
  const auto reads0 = live_->sharded->read_path_stats();
  const uint64_t start = NowNs();
  const LoopResult slice = RunLoop(conns_, live_->sockets, &s.cursors, kSliceS,
                                   traced ? opts.tracer : nullptr, spec_.depth);
  const double took = static_cast<double>(NowNs() - start) / 1e9;
  const auto reads1 = live_->sharded->read_path_stats();
  f->Count(slice.ops + slice.failed_batches * spec_.depth,
           slice.failed_batches * spec_.depth, slice.error);
  Accumulate(slice, traced ? &s.traced : &s.plain);
  if (!traced) {
    s.optimistic += reads1.optimistic - reads0.optimistic;
    s.locked += reads1.locked - reads0.locked;
    ++s.slices;
  }
  return took;
}

StageReport ServedStage::Report(const RunOptions& opts) {
  const Samples& s = *samples_;
  const LoopResult& plain = s.plain;
  StageReport report;
  size_t cycle_ops = 0;
  for (const ServedConnection& c : conns_) cycle_ops += c.commands.size();
  const double kops = plain.window_kops.Median();
  report.e2e["served_kops"] = {kops, "kops"};
  // The round-trip tail swings tenfold with the hypervisor's steal, past
  // any bound, so it is reported with the per-layer metrics (every run).
  report.layer["server.rtt_p99_us"] = {plain.window_p99_us.Median(), "us"};
  report.untraced_pass_s = static_cast<double>(cycle_ops) / (kops * 1e3);
  report.notes.push_back(
      "served: " + std::to_string(conns_.size()) +
      " closed-loop connections, " +
      std::to_string(spec_.depth) + "-deep batches, " +
      std::to_string(plain.ops) + " ops in " + std::to_string(s.slices) +
      " slices; served_kops is the median of " +
      std::to_string(plain.window_kops.Clean().size()) + " of " +
      std::to_string(plain.window_kops.values.size()) + " " +
      std::to_string(static_cast<uint64_t>(kWindowNs / 1000000)) +
      " ms windows (those at low steal); server.rtt_p99_us is the median "
      "of " + std::to_string(plain.window_p99_us.Clean().size()) +
      " windows' p99 batch round trips (" + std::to_string(plain.rtt_samples) +
      " samples; median window p50 " +
      std::to_string(plain.window_p50_us.Median()) + " us)");
  if (!opts.traced) return report;

  Metrics& m = report.layer;
  const double ops = static_cast<double>(plain.ops);
  const double server_cpu = plain.server.user_s + plain.server.sys_s;
  m["core.sharded.optimistic_read_share"] = {
      static_cast<double>(s.optimistic) /
          static_cast<double>(std::max<uint64_t>(1, s.optimistic + s.locked)),
      "share"};
  m["redis_sim.feed_ns_per_op"] = {s.replay.feed_ns_per_op, "ns"};
  m["redis_sim.dispatch_ns_per_op"] = {s.replay.dispatch_ns_per_op, "ns"};
  m["redis_sim.bytes_in_per_op"] = {s.replay.bytes_in_per_op, "B"};
  m["redis_sim.bytes_out_per_op"] = {s.replay.bytes_out_per_op, "B"};
  m["server.cpu_ns_per_op"] = {server_cpu * 1e9 / ops, "ns"};
  m["server.transport_ns_per_op"] = {
      server_cpu * 1e9 / ops - s.replay.feed_ns_per_op, "ns"};
  m["server.sys_share"] = {plain.server.sys_s / server_cpu, "share"};
  m["server.ctx_switches_per_batch"] = {
      plain.server.csw / static_cast<double>(plain.batches), "count"};
  m["client.cpu_ns_per_op"] = {
      (plain.clients.user_s + plain.clients.sys_s) * 1e9 / ops, "ns"};
  report.traced_pass_s =
      static_cast<double>(cycle_ops) / (s.traced.window_kops.Median() * 1e3);
  const StoreTimings& st = live_->timings;
  m["core.sharded.query_ns_p50"] = {st.query_ns.Percentile(0.5), "ns"};
  m["core.sharded.query_ns_p99"] = {st.query_ns.Percentile(0.99), "ns"};
  m["core.sharded.insert_ns_p99"] = {st.insert_ns.Percentile(0.99), "ns"};
  return report;
}

}  // namespace perfbench

// TcpRespServer: the real network service over the Redis-protocol front
// door. An epoll-based nonblocking TCP server that speaks RESP2 and
// dispatches every request into a shared CommandTable — the same
// CommandTable + RespConnection core an in-process embedding drives
// directly, so the served path adds only sockets, not a second protocol
// implementation. It is the socket front door: Figure 17 and the
// served-traffic bench both measure through it over loopback.
//
// Threading model (see docs/ARCHITECTURE.md for the lifecycle diagram):
//  - `num_workers` event-loop threads, each running its own epoll set.
//    Worker 0 additionally owns the nonblocking listener; accepted
//    connections are handed to workers round-robin through a per-worker
//    inbox + eventfd wakeup.
//  - A connection is pinned to one worker for its whole life, so its
//    RespConnection parse state and write buffer are single-threaded by
//    construction and per-connection reply order is request order (full
//    pipelining, no reordering).
//  - With num_workers == 1 the server is a classic single-threaded event
//    loop and any handler target is safe. With num_workers > 1, workers
//    dispatch into the shared CommandTable concurrently, so the handlers
//    must target a thread-safe store (one advertising
//    Capabilities().concurrent_mutations, e.g. cuckoo-sharded — its
//    per-shard reader/writer locks are the only mutexes on the dispatch
//    path; the server itself adds none around handlers).
//
// Per-connection I/O: one recv per readiness event (the fds are
// level-triggered, so unread bytes signal again), fed to the
// connection's RESP parser, whose handlers append replies to the
// connection's one reply buffer; send flushes it, and EPOLLOUT is armed
// only while replies are unsent. Past kMaxPendingReplyBytes unsent, the
// server stops reading from that client until the backlog drains
// (Redis's output-buffer limit, minus the disconnect). A protocol error
// answers -ERR and closes the connection after the flush, like Redis.
#ifndef CUCKOOGRAPH_SERVER_TCP_SERVER_H_
#define CUCKOOGRAPH_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "redis_sim/command_table.h"

namespace cuckoograph::server {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;    // 0 = kernel-assigned; read the result via port()
  int num_workers = 1;  // epoll event-loop threads (clamped to >= 1)
  int backlog = 128;
  bool tcp_nodelay = true;  // disable Nagle so pipelined replies flush
};

class TcpRespServer {
 public:
  // The table must outlive the server and be fully registered before
  // Start (registration is not thread-safe against dispatch).
  TcpRespServer(const ServerConfig& config,
                const redis_sim::CommandTable* table);
  ~TcpRespServer();  // implies Stop()

  TcpRespServer(const TcpRespServer&) = delete;
  TcpRespServer& operator=(const TcpRespServer&) = delete;

  // Binds, listens and spawns the worker threads. Returns false (with a
  // reason in *error when given) on socket setup failure.
  bool Start(std::string* error = nullptr);

  // Shuts the listener and every worker down and joins the threads.
  // Open connections are closed without draining their write buffers.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // The bound port (resolves port 0), valid after a successful Start.
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t protocol_errors = 0;  // connections dropped on framing errors
    // Connections accepted and closed at once because the process or
    // system was out of file descriptors (EMFILE/ENFILE).
    uint64_t connections_refused = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    // Times a connection stopped reading because more than
    // kMaxPendingReplyBytes of its replies were unsent.
    uint64_t read_pauses = 0;
  };
  // Readable from any thread while the server runs (not concurrently
  // with Start or Stop); the byte counters survive Stop.
  Stats stats() const;

  // The unsent-reply backlog past which a connection stops reading.
  static constexpr size_t kMaxPendingReplyBytes = 1 << 20;

 private:
  // One client socket and everything pinned to its worker: protocol
  // state, the reply buffer, and the epoll interest last registered.
  struct Connection {
    explicit Connection(int fd_in, const redis_sim::CommandTable* table)
        : fd(fd_in), conn(table) {}
    int fd = -1;
    redis_sim::RespConnection conn;
    // Encoded replies; out[out_pos, size) is not yet written.
    std::string out;
    size_t out_pos = 0;
    bool close_after_flush = false;
    uint32_t events = 0;  // the epoll interest currently registered
  };

  // Cross-thread state is annotated; everything else in a Worker is
  // touched only by its own event-loop thread (plus Stop after the
  // join), which no mutex can express — the pinning is the invariant.
  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd: new-connection inbox + stop signal
    std::thread thread;
    // The accept → worker handoff: the acceptor pushes under the lock,
    // the owning worker swaps the vector out under it (AdoptInbox).
    Mutex inbox_mu;
    std::vector<int> inbox CUCKOOGRAPH_GUARDED_BY(inbox_mu);
    // Worker-thread-confined: created/erased/read only on the owning
    // event loop (Stop touches it only after joining the thread).
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    // Written by the owning worker only (a relaxed load + store, not a
    // shared read-modify-write); stats() sums them over the workers.
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> read_pauses{0};
  };

  void WorkerLoop(Worker* worker, bool owns_listener);
  void AcceptPending();
  // Out of fds: frees the reserve fd, accepts the pending connection onto
  // it, closes it and reopens the reserve. Returns false when even that
  // fails (the caller stops draining until the next readiness event).
  bool RefuseOnePending();
  void AdoptInbox(Worker* worker);
  void HandleReadable(Worker* worker, Connection* connection);
  // Sends as much of the reply buffer as the socket takes, then closes a
  // drained connection that asked for it or updates its epoll interest,
  // counting a read pause when the backlog passes kMaxPendingReplyBytes.
  void FlushWrites(Worker* worker, Connection* connection);
  void CloseConnection(Worker* worker, Connection* connection);

  ServerConfig config_;
  const redis_sim::CommandTable* table_;
  int listen_fd_ = -1;
  // A spare fd (/dev/null) held for the out-of-fds case: the listener is
  // level-triggered, so a pending connection accept4 cannot take keeps it
  // readable and would spin the acceptor. Closing the reserve makes room
  // to accept that connection and close it, draining the backlog.
  int reserve_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<size_t> next_worker_{0};  // round-robin accept target
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> refused_{0};
};

}  // namespace cuckoograph::server

#endif  // CUCKOOGRAPH_SERVER_TCP_SERVER_H_

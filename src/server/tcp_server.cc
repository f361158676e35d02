#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/errno_string.h"

namespace cuckoograph::server {
namespace {

constexpr int kMaxEpollEvents = 64;
constexpr size_t kReadChunk = 16 * 1024;

std::string Errno(const char* what) {
  return std::string(what) + ": " + ErrnoString(errno);
}

int OpenReserveFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

// Bumps a counter only its owning worker writes: a relaxed load + store
// instead of a locked read-modify-write.
void AddOwned(std::atomic<uint64_t>* counter, uint64_t n) {
  counter->store(counter->load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
}

}  // namespace

TcpRespServer::TcpRespServer(const ServerConfig& config,
                             const redis_sim::CommandTable* table)
    : config_(config), table_(table) {
  if (config_.num_workers < 1) config_.num_workers = 1;
}

TcpRespServer::~TcpRespServer() { Stop(); }

bool TcpRespServer::Start(std::string* error) {
  const auto fail = [this, error](const std::string& why) {
    if (error != nullptr) *error = why;
    Stop();
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    return fail("server already running");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return fail(Errno("socket"));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail("invalid bind address '" + config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Errno("bind"));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, config_.backlog) < 0) return fail(Errno("listen"));
  reserve_fd_ = OpenReserveFd();
  if (reserve_fd_ < 0) return fail(Errno("open(/dev/null)"));

  workers_.clear();
  for (int w = 0; w < config_.num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0) return fail(Errno("epoll_create1"));
    worker->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->wake_fd < 0) return fail(Errno("eventfd"));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->wake_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev) <
        0) {
      return fail(Errno("epoll_ctl(wake)"));
    }
    workers_.push_back(std::move(worker));
  }
  // Worker 0 owns the listener.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(workers_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) <
      0) {
    return fail(Errno("epoll_ctl(listen)"));
  }

  running_.store(true, std::memory_order_release);
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker* worker = workers_[w].get();
    worker->thread =
        std::thread([this, worker, w] { WorkerLoop(worker, w == 0); });
  }
  return true;
}

namespace {

// Rings a worker's eventfd. A signal can interrupt even this 8-byte
// write; dropping it on EINTR would lose the wakeup and leave the
// worker parked in epoll_wait with work pending.
void RingWakeFd(int wake_fd) {
  const uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(wake_fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

}  // namespace

void TcpRespServer::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    for (const auto& worker : workers_) {
      RingWakeFd(worker->wake_fd);
    }
    for (const auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
  for (const auto& worker : workers_) {
    for (const auto& [fd, connection] : worker->conns) {
      (void)connection;
      ::close(fd);
      closed_.fetch_add(1, std::memory_order_relaxed);
    }
    worker->conns.clear();
    {
      // The threads are joined; the lock only lets the analysis prove it.
      MutexLock lock(&worker->inbox_mu);
      for (const int fd : worker->inbox) ::close(fd);
      worker->inbox.clear();
    }
    // The workers themselves stay until the next Start, so stats()
    // still reports their byte counters after a Stop.
    if (worker->wake_fd >= 0) ::close(worker->wake_fd);
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
    worker->wake_fd = worker->epoll_fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
}

TcpRespServer::Stats TcpRespServer::stats() const {
  Stats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_closed = closed_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    stats.bytes_in += worker->bytes_in.load(std::memory_order_relaxed);
    stats.bytes_out += worker->bytes_out.load(std::memory_order_relaxed);
    stats.read_pauses += worker->read_pauses.load(std::memory_order_relaxed);
  }
  return stats;
}

void TcpRespServer::WorkerLoop(Worker* worker, bool owns_listener) {
  epoll_event events[kMaxEpollEvents];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(worker->epoll_fd, events, kMaxEpollEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // the epoll fd itself failed; nothing recoverable
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == worker->wake_fd) {
        uint64_t drained = 0;
        ssize_t r;
        do {
          r = ::read(worker->wake_fd, &drained, sizeof(drained));
        } while (r < 0 && errno == EINTR);
        AdoptInbox(worker);
        continue;
      }
      if (owns_listener && fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      // The same wait batch can carry a second event for a connection a
      // prior event already closed — look it up fresh every time.
      const auto it = worker->conns.find(fd);
      if (it == worker->conns.end()) continue;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        HandleReadable(worker, it->second.get());  // flushes as well
      } else if (events[i].events & EPOLLOUT) {
        FlushWrites(worker, it->second.get());
      }
    }
  }
}

void TcpRespServer::AcceptPending() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if ((errno == EMFILE || errno == ENFILE) && RefuseOnePending()) {
        continue;
      }
      return;  // EAGAIN (drained) or a transient accept failure
    }
    if (config_.tcp_nodelay) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const size_t target = next_worker_.fetch_add(1, std::memory_order_relaxed) %
                          workers_.size();
    Worker* worker = workers_[target].get();
    {
      MutexLock lock(&worker->inbox_mu);
      worker->inbox.push_back(fd);
    }
    // The acceptor is worker 0's loop; it adopts without a wakeup.
    if (target == 0) {
      AdoptInbox(worker);
    } else {
      RingWakeFd(worker->wake_fd);
    }
  }
}

bool TcpRespServer::RefuseOnePending() {
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
  int fd = -1;
  do {
    fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd >= 0) {
    ::close(fd);
    refused_.fetch_add(1, std::memory_order_relaxed);
  }
  reserve_fd_ = OpenReserveFd();
  return fd >= 0;
}

void TcpRespServer::AdoptInbox(Worker* worker) {
  std::vector<int> adopted;
  {
    MutexLock lock(&worker->inbox_mu);
    adopted.swap(worker->inbox);
  }
  for (const int fd : adopted) {
    auto connection = std::make_unique<Connection>(fd, table_);
    epoll_event ev{};
    ev.events = connection->events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      closed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    worker->conns.emplace(fd, std::move(connection));
  }
}

void TcpRespServer::HandleReadable(Worker* worker, Connection* connection) {
  // One recv per readiness event: the fd is level-triggered, so bytes
  // left in the socket signal again on the next epoll_wait.
  char buffer[kReadChunk];
  ssize_t n;
  do {
    n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
    CloseConnection(worker, connection);  // hard socket error
    return;
  }
  if (n == 0) {
    // The client finished sending: flush its replies, then close.
    connection->close_after_flush = true;
  } else if (n > 0) {
    AddOwned(&worker->bytes_in, static_cast<uint64_t>(n));
    const std::string_view bytes(buffer, static_cast<size_t>(n));
    if (!connection->conn.Feed(bytes, &connection->out)) {
      // Framing error: the -ERR reply is buffered; drop the client after
      // the flush, as a real Redis does.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      connection->close_after_flush = true;
    }
  }
  FlushWrites(worker, connection);
}

void TcpRespServer::FlushWrites(Worker* worker, Connection* connection) {
  std::string& out = connection->out;
  while (connection->out_pos < out.size()) {
    const ssize_t n =
        ::send(connection->fd, out.data() + connection->out_pos,
               out.size() - connection->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      AddOwned(&worker->bytes_out, static_cast<uint64_t>(n));
      connection->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(worker, connection);  // peer vanished mid-reply
    return;
  }
  if (connection->out_pos == out.size()) {
    out.clear();  // keeps the capacity: the next replies allocate nothing
    connection->out_pos = 0;
    if (connection->close_after_flush) {
      CloseConnection(worker, connection);
      return;
    }
  } else if (connection->out_pos > out.size() / 2) {
    out.erase(0, connection->out_pos);
    connection->out_pos = 0;
  }
  // Re-register the interest this state calls for: EPOLLOUT while
  // replies are unsent; EPOLLIN unless the connection is closing (an
  // EOF'd socket stays level-readable forever) or paused with more than
  // kMaxPendingReplyBytes unsent.
  const size_t pending = out.size() - connection->out_pos;
  const bool paused =
      !connection->close_after_flush && pending > kMaxPendingReplyBytes;
  const uint32_t events =
      (connection->close_after_flush || paused ? 0u : EPOLLIN) |
      (pending > 0 ? EPOLLOUT : 0u);
  if (events == connection->events) return;
  if (paused && (connection->events & EPOLLIN) != 0) {
    AddOwned(&worker->read_pauses, 1);
  }
  connection->events = events;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = connection->fd;
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_MOD, connection->fd, &ev);
}

void TcpRespServer::CloseConnection(Worker* worker, Connection* connection) {
  const int fd = connection->fd;
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  worker->conns.erase(fd);  // frees `connection`
}

}  // namespace cuckoograph::server

#include "server/resp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "common/errno_string.h"

namespace cuckoograph::server {
namespace {

constexpr size_t kReadChunk = 16 * 1024;

// A connect() that a signal interrupts keeps going in the kernel, and
// calling it again fails with EALREADY. Waits for that connect to finish
// and returns its outcome as an errno value (0 on success).
int FinishInterruptedConnect(int fd) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  while (::poll(&pfd, 1, -1) < 0) {
    if (errno != EINTR) return errno;
  }
  int error = 0;
  socklen_t len = sizeof(error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) < 0) return errno;
  return error;
}

}  // namespace

RespClient::~RespClient() { Close(); }

RespClient::RespClient(RespClient&& other) noexcept
    : fd_(other.fd_),
      in_(std::move(other.in_)),
      pending_out_(std::move(other.pending_out_)),
      pending_replies_(other.pending_replies_) {
  other.fd_ = -1;
  other.pending_replies_ = 0;
}

RespClient& RespClient::operator=(RespClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    in_ = std::move(other.in_);
    pending_out_ = std::move(other.pending_out_);
    pending_replies_ = other.pending_replies_;
    other.fd_ = -1;
    other.pending_replies_ = 0;
  }
  return *this;
}

bool RespClient::Connect(const std::string& host, uint16_t port,
                         std::string* error) {
  const auto fail = [this, error](const std::string& why) {
    if (error != nullptr) *error = why;
    Close();
    return false;
  };
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return fail(std::string("socket: ") + ErrnoString(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return fail("invalid address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno == EINTR ? FinishInterruptedConnect(fd_) : errno;
    if (err != 0) return fail(std::string("connect: ") + ErrnoString(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void RespClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
  pending_out_.clear();
  pending_replies_ = 0;
}

redis_sim::RespValue RespClient::Execute(
    const std::vector<std::string>& argv) {
  if (!SendRaw(redis_sim::EncodeCommand(argv))) {
    throw std::runtime_error("RespClient: send failed");
  }
  return ReadReply();
}

void RespClient::Pipeline(const std::vector<std::string>& argv) {
  pending_out_ += redis_sim::EncodeCommand(argv);
  ++pending_replies_;
}

std::vector<redis_sim::RespValue> RespClient::Flush() {
  const size_t expected = pending_replies_;
  std::string burst;
  burst.swap(pending_out_);
  pending_replies_ = 0;
  if (!SendRaw(burst)) {
    throw std::runtime_error("RespClient: pipelined send failed");
  }
  std::vector<redis_sim::RespValue> replies;
  replies.reserve(expected);
  for (size_t i = 0; i < expected; ++i) replies.push_back(ReadReply());
  return replies;
}

bool RespClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return false;
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

redis_sim::RespValue RespClient::ReadReply() {
  while (true) {
    redis_sim::ParseResult reply = redis_sim::ParseValue(in_);
    if (reply.status == redis_sim::ParseStatus::kOk) {
      in_.erase(0, reply.consumed);
      return std::move(reply.value);
    }
    if (reply.status == redis_sim::ParseStatus::kError) {
      throw std::runtime_error("RespClient: unparsable reply: " +
                               reply.error);
    }
    char buffer[kReadChunk];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      in_.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error(
        n == 0 ? "RespClient: connection closed by server"
               : std::string("RespClient: recv: ") + ErrnoString(errno));
  }
}

}  // namespace cuckoograph::server

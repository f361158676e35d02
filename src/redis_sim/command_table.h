// The transport-agnostic core of the Redis-protocol front door. It is
// the in-process entry point (an embedding owns a CommandTable and one
// RespConnection and feeds it bytes), and the TCP server (src/server/)
// runs the same pair per socket, so both transports share exactly one
// dispatch / protocol code path:
//
//  - CommandTable: command registration (case-insensitive name, Redis
//    arity semantics) and request dispatch. One table serves every
//    connection; once registered it is read-only, so the TCP server's
//    worker threads dispatch into it concurrently without writing any
//    shared state.
//  - RespConnection: everything that is per-connection — the incremental
//    RESP2 parse state, protocol-error handling and the command, error
//    and byte counters. A transport owns one RespConnection per client
//    and feeds it whatever byte fragments arrive.
//
// A served command allocates nothing: its argv are views into the bytes
// being fed (or the connection's buffered partial request), held in one
// reused vector per connection, and its handler appends the reply
// straight onto the caller's output buffer, the way Redis's addReply*
// family writes into the client buffer.
#ifndef CUCKOOGRAPH_REDIS_SIM_COMMAND_TABLE_H_
#define CUCKOOGRAPH_REDIS_SIM_COMMAND_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/span.h"
#include "redis_sim/resp.h"

namespace cuckoograph::redis_sim {

// Registration + arity + dispatch. Registration is a setup-time
// operation (not thread-safe against concurrent Dispatch); Dispatch is
// const and safe from any number of threads once registration is done,
// provided the handlers themselves are (e.g. they target a store
// advertising Capabilities().concurrent_mutations).
class CommandTable {
 public:
  // A registered command body. `argv` is the full request (argv[0] is
  // the command name as the client sent it); the handler appends exactly
  // one reply to *out with the resp.h appenders (AppendInteger,
  // AppendError, AppendBulk, ...). The views borrow the connection's
  // parse buffers — copy anything that must outlive the call.
  using CommandHandler =
      std::function<void(Span<const std::string_view> argv, std::string* out)>;

  // Registers `name` (matched case-insensitively) with Redis arity
  // semantics: a positive `arity` requires exactly that many argv
  // entries (command name included); a negative `arity` requires at
  // least |arity|. Returns false (keeping the existing entry) when the
  // name is already taken.
  bool RegisterCommand(std::string_view name, int arity,
                       CommandHandler handler);

  // Dispatches one parsed request (argv must be non-empty), appending its
  // reply to *out; unknown-command and wrong-arity requests get error
  // replies without reaching a handler. Returns false exactly when the
  // appended reply is an error.
  bool Dispatch(Span<const std::string_view> argv, std::string* out) const;

  // The same dispatch with the reply decoded, for in-process callers.
  // An integer reply costs no heap allocation.
  RespValue Dispatch(Span<const std::string_view> argv) const;

  // Registered command names (uppercased), in registration order.
  std::vector<std::string> CommandNames() const;

 private:
  struct CommandEntry {
    std::string name;  // uppercase
    int arity = 0;
    CommandHandler handler;
  };

  // The entry whose name equals `name` ignoring ASCII case, or null. A
  // linear scan: a table holds a handful of commands (the CG.* family is
  // six), and the length check rejects most of them without a compare.
  const CommandEntry* Find(std::string_view name) const;

  std::vector<CommandEntry> commands_;  // registration order
};

// One client connection's protocol state machine. Stateful like a
// socket: an incomplete trailing command is buffered until a later Feed
// completes it, and several pipelined commands in one Feed produce
// several back-to-back replies. Not thread-safe — a connection belongs
// to exactly one transport thread at a time (the TCP server pins each
// connection to one worker loop).
class RespConnection {
 public:
  explicit RespConnection(const CommandTable* table) : table_(table) {}

  // Feeds request bytes, appending the reply bytes for every completed
  // request to *out. Returns false exactly when the bytes contained a
  // protocol error: the error reply has been appended, the rest of the
  // buffered input is discarded (buffered_bytes() is 0), and a socket
  // transport should close after flushing, as Redis does. An in-process
  // caller may keep feeding; the next Feed starts clean.
  //
  // Complete requests are served straight from `bytes` when nothing is
  // buffered; only an incomplete trailing request is copied. An inline
  // request line, or a multibulk/bulk length header, that passes
  // kMaxInlineLen bytes without its terminator is a protocol error
  // (resp.h), so no unterminated line grows the buffer unbounded.
  bool Feed(std::string_view bytes, std::string* out);

  struct Stats {
    uint64_t commands = 0;         // requests dispatched from this connection
    uint64_t error_replies = 0;    // arity/unknown/protocol/handler errors
    uint64_t protocol_errors = 0;  // subset of error_replies: framing errors
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };
  const Stats& stats() const { return stats_; }

  // Request bytes received but not yet forming a complete command.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  const CommandTable* table_;
  std::string buffer_;  // an incomplete trailing request between Feeds
  std::vector<std::string_view> argv_;  // reused parse output
  Stats stats_;
};

}  // namespace cuckoograph::redis_sim

#endif  // CUCKOOGRAPH_REDIS_SIM_COMMAND_TABLE_H_

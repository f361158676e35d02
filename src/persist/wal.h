// The write-ahead log (redo log) of the durability subsystem
// (persist/durable_store.h). Classic ARIES-style discipline, shaped like
// the LevelDB/RocksDB log and the Redis AOF:
//
//  - every mutation batch is one length-prefixed, CRC32C-framed record
//    (an InsertEdges span of 10k edges logs once, not 10k times);
//  - records carry a monotonically increasing LSN so recovery can replay
//    exactly the tail a snapshot does not already cover;
//  - "log before apply": DurableStore appends the record, then mutates
//    the wrapped store, then acknowledges — per the sync mode, the ack
//    also waits for an fdatasync covering the record;
//  - group commit: in WalSyncMode::kGroup a dedicated commit thread
//    coalesces every append that arrived while the previous fdatasync
//    ran into one covering sync, so N concurrent writers pay ~1 sync,
//    not N (the PostgreSQL group-commit shape);
//  - the reader never trusts bytes a CRC does not vouch for: a torn or
//    corrupt tail ends decoding at the last whole record, and recovery
//    truncates the file there.
//
// Record frame (all integers little-endian on disk):
//   u32 payload_len | u32 crc32c(payload) | payload
//   payload = u64 lsn | u8 op | u32 edge_count | edge_count * (u32 u, u32 v)
#ifndef CUCKOOGRAPH_PERSIST_WAL_H_
#define CUCKOOGRAPH_PERSIST_WAL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/span.h"
#include "common/types.h"
#include "persist/file_io.h"

namespace cuckoograph {

// When DurableStore (persist/durable_store.h) acknowledges a mutation
// relative to the WAL fdatasync covering it. Set per store through
// DurableOptions::sync_mode.
enum class WalSyncMode {
  // Every append syncs inline before returning: no acknowledged write is
  // ever lost, every op pays a device flush (~120us on this class of
  // hardware).
  kAlways,
  // Group commit: a dedicated thread coalesces every append that arrived
  // while the previous fdatasync ran into one covering sync, and the
  // append returns once that sync lands. Same no-acked-loss guarantee as
  // kAlways; concurrent writers share the flush cost.
  kGroup,
  // Appends return after the buffered write; syncs happen only at
  // checkpoints and clean close. A crash can lose the unsynced tail —
  // recovery still comes back prefix-consistent, just to an older
  // prefix. The Redis appendfsync-no analogue.
  kNone,
};

}  // namespace cuckoograph

namespace cuckoograph::persist {

enum class WalOp : uint8_t {
  kInsertEdges = 1,
  kDeleteEdges = 2,
};

struct WalRecord {
  uint64_t lsn = 0;
  WalOp op = WalOp::kInsertEdges;
  std::vector<Edge> edges;
};

// ---- Record codec (exposed for the reader and the fuzz suite) -------------

// Encodes one framed record.
std::string EncodeWalRecord(uint64_t lsn, WalOp op, Span<const Edge> edges);

enum class WalDecodeStatus {
  kOk,        // *record filled, *consumed bytes eaten from the front
  kNeedMore,  // bytes end mid-frame (a torn tail, or more input pending)
  kCorrupt,   // framing or CRC violation at the front of `bytes`
};

// Decodes the record at the front of `bytes`. Never throws and never
// reads past `bytes`; on kCorrupt/kNeedMore, *detail says why.
WalDecodeStatus DecodeWalRecord(std::string_view bytes, WalRecord* record,
                                size_t* consumed, std::string* detail);

// ---- Whole-file reader -----------------------------------------------------

struct WalReadResult {
  std::vector<WalRecord> records;
  // Offset of the first byte not covered by a whole valid record — the
  // truncation point recovery applies when !clean.
  uint64_t valid_bytes = 0;
  // False when trailing bytes were torn or corrupt (records holds the
  // clean prefix either way).
  bool clean = true;
  std::string detail;
};

// Decodes every whole valid record of the file. A missing file is an
// empty clean log. Returns false (with *error) only on I/O failure;
// torn/corrupt tails are reported through *out, not as errors.
bool ReadWalFile(const std::string& path, WalReadResult* out,
                 std::string* error);

// ---- Appender --------------------------------------------------------------

struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;          // fdatasync calls issued
  uint64_t group_commits = 0;  // syncs that covered more than one record
  uint64_t truncations = 0;    // checkpoint resets
};

// The append side of the log. Append() is thread-safe; open/close are
// not (the owning DurableStore serializes them).
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Opens `path` for appending (creating it if needed) and, in kGroup
  // mode, starts the commit thread. `next_lsn` seeds the LSN counter
  // (recovery passes max(snapshot, replayed) + 1). `factory` may be
  // null for the POSIX default.
  bool Open(const std::string& path, WalSyncMode mode, uint64_t next_lsn,
            const WritableFileFactory& factory, std::string* error);

  // Stops the commit thread (after a final covering sync), closes the
  // file. Idempotent.
  void Close();

  // Appends one record and blocks until it is durable per the sync
  // mode: kAlways syncs inline, kGroup waits for the commit thread's
  // covering group sync, kNone returns after the buffered write.
  // Returns the record's LSN, or 0 on failure (see last_error()); a
  // failed writer refuses all further appends, because bytes after a
  // partial frame would be unreachable to the reader anyway.
  uint64_t Append(WalOp op, Span<const Edge> edges);

  // Explicit fdatasync of everything appended so far.
  bool SyncNow();

  // Empties the log file (the checkpoint path: the snapshot now covers
  // every logged record). LSNs keep increasing across truncations.
  bool TruncateAll();

  // Next LSN Append() would assign.
  uint64_t next_lsn() const;

  bool failed() const;
  std::string last_error() const;
  WalStats stats() const;

 private:
  void CommitLoop();
  void FailLocked(const char* what);  // requires mu_

  mutable std::mutex mu_;
  std::condition_variable appended_cv_;  // wakes the commit thread
  std::condition_variable synced_cv_;    // wakes group-commit waiters
  std::unique_ptr<WritableFile> file_;
  WalSyncMode mode_ = WalSyncMode::kGroup;
  uint64_t next_lsn_ = 1;
  uint64_t appended_lsn_ = 0;  // highest LSN whose bytes are written
  uint64_t synced_lsn_ = 0;    // highest LSN covered by an fdatasync
  bool stop_ = false;
  bool failed_ = false;
  std::string error_;
  WalStats stats_;
  std::thread committer_;
};

}  // namespace cuckoograph::persist

#endif  // CUCKOOGRAPH_PERSIST_WAL_H_

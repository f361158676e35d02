// DurableStore: the durability decorator over any GraphStore. The paper's
// structure is an in-memory index; this wrapper gives any scheme the
// classic logging discipline on top without touching the scheme itself:
//
//   mutation  = WAL append (log-before-apply, ack per WalSyncMode)
//               -> delegate to the wrapped store
//   checkpoint = quiesce mutators -> dump a CsrSnapshot-format file
//               (tmp + atomic rename) -> truncate the WAL
//   recovery   = newest valid snapshot + replay of WAL records with a
//               higher LSN, truncating any torn/corrupt tail
//
// Recovery is prefix-consistent by construction: the recovered store
// equals the store after some prefix of the logged mutation sequence,
// and in kAlways/kGroup modes that prefix covers every acknowledged
// write. tests/durability_crash_test.cc proves this by SIGKILLing a
// child at injected crash points and recovering in the parent.
//
// Concurrency: mutators take a shared lock and the checkpoint takes the
// exclusive side, so a checkpoint sees a quiesced store (the CsrSnapshot
// builder's contract) while normal mutations only contend on the WAL's
// internal mutex. Reads pass straight through to the wrapped store.
#ifndef CUCKOOGRAPH_PERSIST_DURABLE_STORE_H_
#define CUCKOOGRAPH_PERSIST_DURABLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/span.h"
#include "common/types.h"
#include "core/graph_store.h"
#include "persist/file_io.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace cuckoograph::persist {

struct DurableOptions {
  // Directory holding the WAL and snapshots. Created if missing; any
  // state already there is recovered into the wrapped store on Open.
  std::string dir;

  WalSyncMode sync_mode = WalSyncMode::kGroup;

  // Auto-checkpoint after this many WAL records; 0 disables (explicit
  // Checkpoint() always works).
  size_t checkpoint_every_records = 65536;

  // Fault-injection seam; null uses the POSIX files.
  WritableFileFactory file_factory;
};

// What Open() found on disk — surfaced through durable_stats() so tests
// and the benches can assert on the recovery path taken.
struct RecoveryInfo {
  bool snapshot_loaded = false;
  uint64_t snapshot_lsn = 0;
  uint64_t snapshot_edges = 0;
  uint64_t replayed_records = 0;
  uint64_t replayed_edges = 0;
  // A torn/corrupt WAL tail was found and truncated (never trusted).
  bool wal_tail_truncated = false;
  std::string detail;
};

struct DurableStats {
  WalStats wal;
  uint64_t checkpoints = 0;
  RecoveryInfo recovery;
  std::string last_checkpoint_error;
};

class DurableStore final : public GraphStore {
 public:
  // Opens the durability directory, recovers any existing state into
  // `inner`, and starts logging. Null with *error on failure (`inner`
  // is consumed either way). `display_name` is what name() reports,
  // e.g. "cuckoo-durable" over CuckooGraph. This is the one way to get
  // a durable store: the registry holds in-memory schemes only.
  static std::unique_ptr<DurableStore> Open(std::unique_ptr<GraphStore> inner,
                                            std::string display_name,
                                            const DurableOptions& opts,
                                            std::string* error);

  // Closes the WAL (final covering sync). The directory stays; callers
  // that want it gone call RemoveDirTree (persist/file_io.h) afterwards.
  ~DurableStore() override;

  std::string_view name() const override { return name_; }

  // The wrapped scheme's capabilities with the durable bit set.
  StoreCapabilities Capabilities() const override;

  // Mutators log first, then delegate; they throw std::runtime_error
  // once the WAL has failed (a store that can no longer keep its
  // durability promise must not keep acknowledging writes).
  bool InsertEdge(NodeId u, NodeId v) override;
  bool DeleteEdge(NodeId u, NodeId v) override;
  size_t InsertEdges(Span<const Edge> edges) override;
  size_t DeleteEdges(Span<const Edge> edges) override;

  bool QueryEdge(NodeId u, NodeId v) const override;
  uint64_t EdgeWeight(NodeId u, NodeId v) const override;
  size_t QueryEdges(Span<const Edge> edges) const override;
  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override;
  std::unique_ptr<NeighborCursor> Nodes() const override;
  size_t OutDegree(NodeId u) const override;
  size_t NumEdges() const override;
  size_t NumNodes() const override;
  size_t MemoryBytes() const override;

  // Explicit checkpoint: snapshot + WAL truncation, regardless of the
  // auto cadence. False with *error on failure (the store keeps
  // running on the old snapshot + longer WAL).
  bool Checkpoint(std::string* error);

  // fdatasyncs everything appended so far (meaningful under kNone).
  bool SyncWal();

  DurableStats durable_stats() const;
  const RecoveryInfo& recovery() const { return recovery_; }
  const GraphStore& inner() const { return *inner_; }
  const std::string& dir() const { return opts_.dir; }

 private:
  DurableStore(std::unique_ptr<GraphStore> inner, std::string display_name,
               DurableOptions opts);

  // Appends one record; throws std::runtime_error on WAL failure.
  void LogOrThrow(WalOp op, Span<const Edge> edges);

  // Auto-checkpoint trigger, called after the mutator released its
  // shared hold (the checkpoint needs the exclusive side).
  void MaybeCheckpoint();
  bool CheckpointLocked(std::string* error);

  std::unique_ptr<GraphStore> inner_;
  std::string name_;
  DurableOptions opts_;
  WalWriter wal_;
  RecoveryInfo recovery_;

  // Shared: mutators (log + apply). Exclusive: checkpoint (quiesces the
  // store for the CsrSnapshot build). Reads take neither.
  mutable SharedMutex checkpoint_mu_;
  std::atomic<uint64_t> records_since_checkpoint_{0};
  std::atomic<uint64_t> checkpoints_{0};

  mutable Mutex error_mu_;
  std::string last_checkpoint_error_ CUCKOOGRAPH_GUARDED_BY(error_mu_);
};

}  // namespace cuckoograph::persist

#endif  // CUCKOOGRAPH_PERSIST_DURABLE_STORE_H_

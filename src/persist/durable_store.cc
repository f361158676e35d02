#include "persist/durable_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analytics/csr_snapshot.h"

namespace cuckoograph::persist {
namespace {

constexpr const char* kWalName = "wal.log";

// Re-creates a snapshot's edge set in `inner`. A weighted store gets
// each edge's arrival multiplicity back the way it accumulated live:
// repeated insertions.
void RestoreSnapshot(GraphStore* inner, const SnapshotContents& contents) {
  if (contents.weights.empty() || !inner->Capabilities().weighted) {
    inner->InsertEdges(Span<const Edge>(contents.edges));
    return;
  }
  for (size_t i = 0; i < contents.edges.size(); ++i) {
    const Edge& e = contents.edges[i];
    const uint64_t weight = std::max<uint64_t>(1, contents.weights[i]);
    for (uint64_t k = 0; k < weight; ++k) inner->InsertEdge(e.u, e.v);
  }
}

}  // namespace

std::unique_ptr<DurableStore> DurableStore::Open(
    std::unique_ptr<GraphStore> inner, std::string display_name,
    const DurableOptions& opts, std::string* error) {
  if (inner == nullptr) {
    if (error != nullptr) *error = "DurableStore::Open: null inner store";
    return nullptr;
  }
  if (!EnsureDir(opts.dir, error)) return nullptr;

  std::unique_ptr<DurableStore> store(
      new DurableStore(std::move(inner), std::move(display_name), opts));

  // Phase 1: newest valid snapshot, if any.
  SnapshotScanResult scan;
  if (!FindNewestValidSnapshot(opts.dir, &scan, error)) return nullptr;
  uint64_t base_lsn = 0;
  if (scan.found) {
    RestoreSnapshot(store->inner_.get(), scan.contents);
    base_lsn = scan.contents.last_lsn;
    store->recovery_.snapshot_loaded = true;
    store->recovery_.snapshot_lsn = base_lsn;
    store->recovery_.snapshot_edges = scan.contents.edges.size();
  }
  for (const std::string& skipped : scan.skipped) {
    if (!store->recovery_.detail.empty()) store->recovery_.detail += "; ";
    store->recovery_.detail += "skipped snapshot " + skipped;
  }

  // Phase 2: replay the WAL tail the snapshot does not cover. Records at
  // or below the snapshot's watermark are already in it (a crash between
  // snapshot rename and WAL truncation leaves exactly those behind).
  const std::string wal_path = opts.dir + "/" + kWalName;
  WalReadResult wal_contents;
  if (!ReadWalFile(wal_path, &wal_contents, error)) return nullptr;
  uint64_t max_lsn = base_lsn;
  for (const WalRecord& record : wal_contents.records) {
    max_lsn = std::max(max_lsn, record.lsn);
    if (record.lsn <= base_lsn) continue;
    const Span<const Edge> edges(record.edges);
    if (record.op == WalOp::kInsertEdges) {
      store->inner_->InsertEdges(edges);
    } else {
      store->inner_->DeleteEdges(edges);
    }
    ++store->recovery_.replayed_records;
    store->recovery_.replayed_edges += record.edges.size();
  }

  // Phase 3: never trust bytes past the last valid record — chop them
  // before appending, or the reader would stop at the garbage forever.
  if (!wal_contents.clean) {
    if (!TruncateFile(wal_path, wal_contents.valid_bytes, error)) {
      return nullptr;
    }
    store->recovery_.wal_tail_truncated = true;
    if (!store->recovery_.detail.empty()) store->recovery_.detail += "; ";
    store->recovery_.detail += wal_contents.detail;
  }

  // Phase 4: start logging where the history left off.
  if (!store->wal_.Open(wal_path, opts.sync_mode, max_lsn + 1,
                        opts.file_factory, error)) {
    return nullptr;
  }
  return store;
}

DurableStore::DurableStore(std::unique_ptr<GraphStore> inner,
                           std::string display_name, DurableOptions opts)
    : inner_(std::move(inner)),
      name_(std::move(display_name)),
      opts_(std::move(opts)) {}

DurableStore::~DurableStore() { wal_.Close(); }

StoreCapabilities DurableStore::Capabilities() const {
  StoreCapabilities caps = inner_->Capabilities();
  caps.durable = true;
  return caps;
}

void DurableStore::LogOrThrow(WalOp op, Span<const Edge> edges) {
  if (wal_.Append(op, edges) == 0) {
    throw std::runtime_error(std::string(name_) +
                             ": wal append failed, refusing to acknowledge "
                             "writes (" +
                             wal_.last_error() + ")");
  }
  records_since_checkpoint_.fetch_add(1, std::memory_order_relaxed);
}

bool DurableStore::InsertEdge(NodeId u, NodeId v) {
  const Edge edge{u, v};
  bool inserted;
  {
    ReaderMutexLock lock(&checkpoint_mu_);
    LogOrThrow(WalOp::kInsertEdges, Span<const Edge>(&edge, 1));
    inserted = inner_->InsertEdge(u, v);
  }
  MaybeCheckpoint();
  return inserted;
}

bool DurableStore::DeleteEdge(NodeId u, NodeId v) {
  const Edge edge{u, v};
  bool deleted;
  {
    ReaderMutexLock lock(&checkpoint_mu_);
    LogOrThrow(WalOp::kDeleteEdges, Span<const Edge>(&edge, 1));
    deleted = inner_->DeleteEdge(u, v);
  }
  MaybeCheckpoint();
  return deleted;
}

size_t DurableStore::InsertEdges(Span<const Edge> edges) {
  if (edges.empty()) return 0;
  size_t inserted;
  {
    ReaderMutexLock lock(&checkpoint_mu_);
    LogOrThrow(WalOp::kInsertEdges, edges);
    inserted = inner_->InsertEdges(edges);
  }
  MaybeCheckpoint();
  return inserted;
}

size_t DurableStore::DeleteEdges(Span<const Edge> edges) {
  if (edges.empty()) return 0;
  size_t deleted;
  {
    ReaderMutexLock lock(&checkpoint_mu_);
    LogOrThrow(WalOp::kDeleteEdges, edges);
    deleted = inner_->DeleteEdges(edges);
  }
  MaybeCheckpoint();
  return deleted;
}

bool DurableStore::QueryEdge(NodeId u, NodeId v) const {
  return inner_->QueryEdge(u, v);
}

uint64_t DurableStore::EdgeWeight(NodeId u, NodeId v) const {
  return inner_->EdgeWeight(u, v);
}

size_t DurableStore::QueryEdges(Span<const Edge> edges) const {
  return inner_->QueryEdges(edges);
}

std::unique_ptr<NeighborCursor> DurableStore::Neighbors(NodeId u) const {
  return inner_->Neighbors(u);
}

std::unique_ptr<NeighborCursor> DurableStore::Nodes() const {
  return inner_->Nodes();
}

size_t DurableStore::OutDegree(NodeId u) const { return inner_->OutDegree(u); }

size_t DurableStore::NumEdges() const { return inner_->NumEdges(); }

size_t DurableStore::NumNodes() const { return inner_->NumNodes(); }

size_t DurableStore::MemoryBytes() const { return inner_->MemoryBytes(); }

bool DurableStore::Checkpoint(std::string* error) {
  WriterMutexLock lock(&checkpoint_mu_);
  return CheckpointLocked(error);
}

bool DurableStore::SyncWal() { return wal_.SyncNow(); }

void DurableStore::MaybeCheckpoint() {
  const size_t threshold = opts_.checkpoint_every_records;
  if (threshold == 0) return;
  if (records_since_checkpoint_.load(std::memory_order_relaxed) < threshold) {
    return;
  }
  WriterMutexLock lock(&checkpoint_mu_);
  // Another mutator may have checkpointed while this one waited.
  if (records_since_checkpoint_.load(std::memory_order_relaxed) < threshold) {
    return;
  }
  std::string error;
  if (!CheckpointLocked(&error)) {
    MutexLock error_lock(&error_mu_);
    last_checkpoint_error_ = error;
  }
}

bool DurableStore::CheckpointLocked(std::string* error) {
  analytics::CsrSnapshot csr;
  try {
    analytics::SnapshotOptions snapshot_opts;
    snapshot_opts.with_weights = inner_->Capabilities().weighted;
    csr = analytics::CsrSnapshot::FromStore(*inner_, snapshot_opts);
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("checkpoint snapshot build: ") + e.what();
    }
    return false;
  }
  // Under the exclusive lock nothing is mid-mutation, so every assigned
  // LSN is applied and the snapshot covers all of them.
  const uint64_t last_lsn = wal_.next_lsn() - 1;
  if (!WriteSnapshotFile(opts_.dir, csr, last_lsn, opts_.file_factory,
                         error)) {
    // Back off instead of retrying on every subsequent mutation.
    records_since_checkpoint_.store(0, std::memory_order_relaxed);
    return false;
  }
  if (!wal_.TruncateAll()) {
    if (error != nullptr) {
      *error = "wal truncate after snapshot: " + wal_.last_error();
    }
    records_since_checkpoint_.store(0, std::memory_order_relaxed);
    return false;
  }
  PruneOldSnapshots(opts_.dir, opts_.dir + "/" + SnapshotFileName(last_lsn));
  records_since_checkpoint_.store(0, std::memory_order_relaxed);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

DurableStats DurableStore::durable_stats() const {
  DurableStats stats;
  stats.wal = wal_.stats();
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.recovery = recovery_;
  {
    MutexLock lock(&error_mu_);
    stats.last_checkpoint_error = last_checkpoint_error_;
  }
  return stats;
}

}  // namespace cuckoograph::persist

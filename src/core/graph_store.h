// The abstract dynamic-graph-store interface (v2) every scheme implements:
// CuckooGraph itself, and the baseline stores the comparison benches load
// through the store factory (src/baselines/store_factory.h).
//
// v2 replaces the v1 `std::function`-based ForEachNeighbor virtual with a
// block cursor: one virtual NeighborCursor::Next() call yields up to a
// buffer's worth of neighbor ids, so hot scan loops pay one dispatch per
// block instead of one type-erased call per edge. ForEachNeighbor survives
// as a non-virtual template wrapper over the cursor. v2 also adds batch
// entry points (InsertEdges/QueryEdges/DeleteEdges) with loop defaults that
// schemes may override to amortize per-call overhead, and a Capabilities()
// traits struct the benches consult to skip unsupported cells.
#ifndef CUCKOOGRAPH_CORE_GRAPH_STORE_H_
#define CUCKOOGRAPH_CORE_GRAPH_STORE_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>

#include "common/span.h"
#include "common/types.h"

namespace cuckoograph {

// A pull-based block iterator over a stream of node ids (a vertex's
// successors, or the store's vertex set). Every cursor is invalidated by
// any mutation of the store, whatever the scheme; Capabilities()'s
// stable_iteration only promises a deterministic (sorted) order.
class NeighborCursor {
 public:
  // Natural block size for drain loops; implementations may return fewer
  // ids per call, and callers may pass any capacity >= 1.
  static constexpr size_t kBlockSize = 64;

  virtual ~NeighborCursor() = default;

  // Fills `out` with up to `capacity` ids and returns how many were
  // written. Returns 0 exactly when the stream is exhausted, and keeps
  // returning 0 on every call after that (drain loops may probe again).
  virtual size_t Next(NodeId* out, size_t capacity) = 0;

  // Drains the remaining stream, returning how many ids were left.
  size_t Count() {
    NodeId block[kBlockSize];
    size_t total = 0, n;
    while ((n = Next(block, kBlockSize)) > 0) total += n;
    return total;
  }
};

// What a scheme supports. Benches consult this to skip cells a scheme
// cannot run instead of crashing or reporting garbage.
struct StoreCapabilities {
  // Duplicate arrivals accumulate as edge weight (the extended store), and
  // EdgeWeight() reports the accumulated multiplicity. Snapshot builders
  // (analytics/csr_snapshot.h) consult this before pulling weights.
  bool weighted = false;
  // DeleteEdge / DeleteEdges are implemented.
  bool deletions = true;
  // Neighbor iteration yields ascending NodeId order (deterministic
  // across runs and insertion orders).
  bool stable_iteration = false;
  // Edge ops (Insert/Query/Delete/EdgeWeight/OutDegree, scalar and batch)
  // may be called from multiple threads without external locking. Cursors
  // are excluded: Neighbors()/Nodes() still require the store to be
  // quiesced for as long as the cursor is drained, whatever the scheme.
  bool concurrent_mutations = false;
  // Mutations survive a process crash: the store logs them to a WAL
  // before applying and recovers snapshot + log on reopen. Only the
  // persist/durable_store.h decorator sets it (over any wrapped scheme);
  // no registry scheme is durable.
  bool durable = false;
};

class GraphStore {
 public:
  virtual ~GraphStore() = default;

  // Display name of the scheme (stable, used as bench column header).
  virtual std::string_view name() const = 0;

  // Traits of this scheme; the default claims the baseline contract
  // (unweighted, deletions supported, unstable iteration).
  virtual StoreCapabilities Capabilities() const {
    return StoreCapabilities{};
  }

  // Inserts directed edge <u, v>. Returns true if the edge is new, false
  // if it was already present (duplicate arrivals are idempotent).
  virtual bool InsertEdge(NodeId u, NodeId v) = 0;

  // Returns true iff directed edge <u, v> is present.
  virtual bool QueryEdge(NodeId u, NodeId v) const = 0;

  // Deletes directed edge <u, v>. Returns true iff it was present.
  virtual bool DeleteEdge(NodeId u, NodeId v) = 0;

  // Weight of <u, v>: 0 when absent, 1 when present. Schemes advertising
  // Capabilities().weighted override this with the accumulated arrival
  // multiplicity so snapshot extraction can pull real weights.
  virtual uint64_t EdgeWeight(NodeId u, NodeId v) const {
    return QueryEdge(u, v) ? 1 : 0;
  }

  // ---- Batch operations ----------------------------------------------------
  // Defaults loop over the per-edge virtuals; schemes override them when a
  // batch can be served cheaper than edge-at-a-time (e.g. the sorted-vector
  // baseline merges a sorted batch in one pass per vertex).

  // Inserts every edge of `edges`; returns how many were new.
  virtual size_t InsertEdges(Span<const Edge> edges);

  // Queries every edge of `edges`; returns how many are present.
  virtual size_t QueryEdges(Span<const Edge> edges) const;

  // Deletes every edge of `edges`; returns how many were present.
  virtual size_t DeleteEdges(Span<const Edge> edges);

  // ---- Iteration -----------------------------------------------------------

  // Cursor over the successors of `u` (empty stream if `u` is absent), in
  // unspecified order unless Capabilities().stable_iteration.
  virtual std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const = 0;

  // Cursor over every vertex currently holding at least one out-edge.
  virtual std::unique_ptr<NeighborCursor> Nodes() const = 0;

  // Out-degree of `u` (0 if absent). The default drains Neighbors(u);
  // schemes with a degree field override it with O(1).
  virtual size_t OutDegree(NodeId u) const { return Neighbors(u)->Count(); }

  // Invokes `fn` once per successor of `u`. Non-virtual convenience over
  // Neighbors(): with a concrete callable the per-edge call inlines, and
  // dispatch costs one virtual call per kBlockSize edges.
  template <typename Fn>
  void ForEachNeighbor(NodeId u, Fn&& fn) const {
    DrainCursor(Neighbors(u), std::forward<Fn>(fn));
  }

  // Invokes `fn` once per vertex with at least one out-edge.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    DrainCursor(Nodes(), std::forward<Fn>(fn));
  }

  // ---- Accounting ----------------------------------------------------------

  // Number of distinct directed edges currently stored.
  virtual size_t NumEdges() const = 0;

  // Number of vertices currently holding at least one out-edge.
  virtual size_t NumNodes() const = 0;

  // Resident memory footprint of the store, in bytes.
  virtual size_t MemoryBytes() const = 0;

 private:
  template <typename Fn>
  static void DrainCursor(std::unique_ptr<NeighborCursor> cursor, Fn&& fn) {
    NodeId block[NeighborCursor::kBlockSize];
    size_t n;
    while ((n = cursor->Next(block, NeighborCursor::kBlockSize)) > 0) {
      for (size_t i = 0; i < n; ++i) fn(block[i]);
    }
  }
};

// An always-empty cursor, for absent vertices.
class EmptyNeighborCursor final : public NeighborCursor {
 public:
  size_t Next(NodeId*, size_t) override { return 0; }
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_CORE_GRAPH_STORE_H_

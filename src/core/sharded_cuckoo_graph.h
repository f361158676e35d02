// ShardedCuckooGraph: the concurrent front-end over the core structure.
// The edge set is partitioned by a hash of the source vertex into
// Config::num_shards independent CuckooGraph shards, each guarded by its
// own reader-writer lock (striped locking: no global lock exists, threads
// touching different shards never contend). Every GraphStore v2 entry
// point is implemented; Capabilities().concurrent_mutations advertises
// that edge ops are thread-safe.
//
// Locking discipline (see docs/ARCHITECTURE.md):
//  - scalar edge ops lock exactly one shard (writers exclusively, readers
//    shared), keyed by the source vertex, and never hold two locks;
//  - batch ops group the span by shard first, then visit each shard once
//    under a single lock acquisition, so a batch pays lock traffic per
//    shard instead of per edge;
//  - whole-store accounting (NumEdges/NumNodes/MemoryBytes/stats) takes
//    the shard locks one at a time — each answer is exact only if no
//    writer runs concurrently, which is all a sum of moving counters can
//    promise;
//  - cursors follow the store-wide contract: any mutation invalidates
//    them, so Neighbors()/Nodes() require a quiesced store while drained.
//    Nodes() materializes its id list under the locks, Neighbors(u) leases
//    the shard's in-place cursor.
//
// The discipline is machine-checked: each shard's CuckooGraph is
// CUCKOOGRAPH_GUARDED_BY its stripe lock, so any access path that does
// not hold the lock (shared for reads, exclusive for writes) is a
// compile error under clang's -Wthread-safety (the static-analysis CI
// job builds with it as -Werror).
//
// Every read takes its stripe lock shared, so clang's analysis and
// ThreadSanitizer check every access the store makes
// (tests/sharded_cuckoo_graph_test.cc races readers against writers
// that force every structural mutation).
#ifndef CUCKOOGRAPH_CORE_SHARDED_CUCKOO_GRAPH_H_
#define CUCKOOGRAPH_CORE_SHARDED_CUCKOO_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/span.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/config.h"
#include "core/cuckoo_graph.h"
#include "core/graph_store.h"

namespace cuckoograph {

class ShardedCuckooGraph : public GraphStore {
 public:
  ShardedCuckooGraph() : ShardedCuckooGraph(Config()) {}
  // Every shard is a CuckooGraph built from `config` (num_shards itself is
  // clamped to at least 1).
  explicit ShardedCuckooGraph(const Config& config);
  ~ShardedCuckooGraph() override;

  ShardedCuckooGraph(const ShardedCuckooGraph&) = delete;
  ShardedCuckooGraph& operator=(const ShardedCuckooGraph&) = delete;

  std::string_view name() const override { return "cuckoo-sharded"; }
  StoreCapabilities Capabilities() const override {
    StoreCapabilities caps;
    caps.deletions = true;
    caps.concurrent_mutations = true;
    return caps;
  }

  bool InsertEdge(NodeId u, NodeId v) override;
  bool QueryEdge(NodeId u, NodeId v) const override;
  bool DeleteEdge(NodeId u, NodeId v) override;
  uint64_t EdgeWeight(NodeId u, NodeId v) const override;

  size_t InsertEdges(Span<const Edge> edges) override;
  size_t QueryEdges(Span<const Edge> edges) const override;
  size_t DeleteEdges(Span<const Edge> edges) override;

  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override;
  std::unique_ptr<NeighborCursor> Nodes() const override;

  size_t OutDegree(NodeId u) const override;
  size_t NumEdges() const override;
  size_t NumNodes() const override;
  size_t MemoryBytes() const override;

  size_t num_shards() const { return shards_.size(); }

  // Which shard a source vertex routes to (tests and the scalability
  // bench use this to build shard-disjoint workloads).
  size_t ShardOf(NodeId u) const { return ShardIndex(u); }

  // Operation counters summed across shards.
  GraphStats stats() const;

  // Reads served (summed across shards; relaxed counters, exact only on
  // a quiesced store). Every read takes the stripe lock, so `optimistic`
  // is always 0; the field stays because the repository benchmark reads
  // it.
  struct ReadPathStats {
    uint64_t optimistic = 0;  // always 0
    uint64_t locked = 0;      // served under the stripe lock
  };
  ReadPathStats read_path_stats() const;

 private:
  // A shard: one core structure plus its stripe lock, cache-line aligned
  // so neighbouring shards' lock words never share a line. The core
  // structure is not thread-safe on its own, so it is guarded as a whole
  // by the stripe lock.
  struct alignas(64) Shard {
    explicit Shard(const Config& config) : graph(config) {}

    mutable SharedMutex mu;
    CuckooGraph graph CUCKOOGRAPH_GUARDED_BY(mu);

    // Reads served (observability only, hence relaxed).
    mutable std::atomic<uint64_t> locked_reads_served{0};
  };

  // Per-shard slices of the batch ops: the caller owns the shard lock
  // (exclusively for mutations, shared for queries) and the analysis
  // verifies it at every call site.
  static size_t InsertSlice(Shard& shard, Span<const Edge> part)
      CUCKOOGRAPH_REQUIRES(shard.mu);
  static size_t QuerySlice(const Shard& shard, Span<const Edge> part)
      CUCKOOGRAPH_REQUIRES_SHARED(shard.mu);
  static size_t DeleteSlice(Shard& shard, Span<const Edge> part)
      CUCKOOGRAPH_REQUIRES(shard.mu);

  size_t ShardIndex(NodeId u) const {
    // Fibonacci multiply-shift so consecutive source ids spread across
    // shards instead of clustering; reduced modulo the shard count.
    const uint64_t mixed = static_cast<uint64_t>(u) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(mixed >> 32) % shards_.size();
  }

  // Visits each shard's sub-span of `edges` (grouped by ShardIndex) once:
  // fn(shard, Span<const Edge>) under no lock — callers lock per shard.
  template <typename Fn>
  void GroupByShard(Span<const Edge> edges, Fn fn) const;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_CORE_SHARDED_CUCKOO_GRAPH_H_

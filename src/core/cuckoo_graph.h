// CuckooGraph (ICDE'25): a fully-dynamic graph store built from cuckoo
// hash tables. The top-level L-CHT maps each vertex to its adjacency; a
// vertex's first kInlineSlots (6) neighbours live inline in its L-CHT
// cell, and the TRANSFORMATION mechanism promotes the adjacency into a
// chain of up to R nested cuckoo tables (the S-CHTs) as the degree
// grows, following the Table II length sequence. Kick-out failures park
// in per-table-set DENYLISTs so growth stays load-driven, and the
// reverse transformation tightens the structure again under deletions.
#ifndef CUCKOOGRAPH_CORE_CUCKOO_GRAPH_H_
#define CUCKOOGRAPH_CORE_CUCKOO_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/bob_hash.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/config.h"
#include "core/graph_store.h"
#include "core/internal/cuckoo_table.h"

namespace cuckoograph {

namespace internal {
struct Chain;
}  // namespace internal

// Per-table-family operation counters (Theorems 1 and 2). "l" aggregates
// the top-level L-CHT; "s" aggregates every per-vertex S-CHT chain table.
struct TableStats {
  // Items placed by a direct insertion (one per item, not per probe).
  uint64_t insert_attempts = 0;
  // Kick-out evictions across all placements, rehashes included.
  uint64_t kicks = 0;
  // Items re-placed while a table set expanded, merged, or shrank.
  uint64_t rehash_moves = 0;
  // Merge-and-double growths (S-CHT chains at R tables).
  uint64_t merges = 0;
  // Capacity growths: L-CHT doublings / S-CHT chain appends.
  uint64_t expansions = 0;
};

struct GraphStats {
  TableStats l;
  TableStats s;
  // Live S-CHT chains (vertices past the inline-slot threshold).
  uint64_t num_chains = 0;
  // Inline-to-chain TRANSFORMATIONs performed.
  uint64_t transformations = 0;
  // Chain collapses/shrinks performed by the reverse transformation.
  uint64_t reverse_transformations = 0;
  // Items that were parked in a denylist at least once.
  uint64_t denylist_parks = 0;
};

class CuckooGraph : public GraphStore {
 public:
  // Neighbours stored inline in a vertex cell before TRANSFORMATION. The
  // paper's 2R at its R = 3, fixed for any Config::max_chain_tables.
  static constexpr int kInlineSlots = 6;

  // Items a table set may park in its denylist before growth is forced.
  // Small by design: the denylist is scanned linearly on every probe of
  // that table set. Figure 5 is the ablation (Config::enable_deny_list).
  static constexpr size_t kDenylistLimit = 8;

  CuckooGraph() : CuckooGraph(Config()) {}
  explicit CuckooGraph(const Config& config);
  ~CuckooGraph() override;

  CuckooGraph(const CuckooGraph&) = delete;
  CuckooGraph& operator=(const CuckooGraph&) = delete;

  std::string_view name() const override { return "CuckooGraph"; }
  StoreCapabilities Capabilities() const override {
    StoreCapabilities caps;
    caps.deletions = true;
    return caps;
  }
  bool InsertEdge(NodeId u, NodeId v) override;
  bool QueryEdge(NodeId u, NodeId v) const override;
  bool DeleteEdge(NodeId u, NodeId v) override;
  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override;
  std::unique_ptr<NeighborCursor> Nodes() const override;
  size_t NumEdges() const override { return num_edges_; }
  size_t NumNodes() const override;
  size_t MemoryBytes() const override;

  // O(1): the degree is a field of the vertex cell.
  size_t OutDegree(NodeId u) const override;

  // The (normalized) configuration this instance runs with.
  const Config& config() const { return config_; }

  // Snapshot of the operation counters.
  GraphStats stats() const;

  // Bucket counts of each table in `u`'s S-CHT chain, head first; empty if
  // `u` has no chain (absent or still inline). Backs the Table II bench.
  std::vector<size_t> SChainLengths(NodeId u) const;

 protected:
  // Weighted-variant hooks (see WeightedCuckooGraph). Inserts the edge
  // with weight `delta` if absent, otherwise adds `delta`; returns the
  // resulting weight.
  uint64_t AddEdgeWeight(NodeId u, NodeId v, uint32_t delta);
  uint64_t GetEdgeWeight(NodeId u, NodeId v) const;

 private:
  // One stored neighbour (the S-CHT chain item). The weight slot is 1 for
  // unweighted edges and the accumulated multiplicity in the weighted
  // variant.
  struct Neighbor {
    NodeId v = 0;
    uint32_t weight = 0;
    NodeId CuckooKey() const { return v; }
  };

  // Inline adjacency of a low-degree vertex, as parallel arrays so the
  // neighbour keys sit contiguously and one vector compare probes every
  // slot (internal::MatchKeyMask). The arrays are sized at the SIMD lane
  // count (8 > kInlineSlots); lanes past `degree` are ignored.
  struct InlineSlots {
    NodeId v[internal::kKeyLanes];
    uint32_t w[internal::kKeyLanes];
  };

  // One L-CHT cell payload: the vertex and its adjacency, either inline
  // (first kInlineSlots neighbours) or an owned S-CHT chain.
  struct VertexEntry {
    NodeId key = 0;
    uint32_t degree = 0;
    bool has_chain = false;
    union {
      InlineSlots inline_;
      internal::Chain* chain;
    };
    VertexEntry() : inline_{} {}
    NodeId CuckooKey() const { return key; }
  };

  friend struct internal::Chain;

  class NeighborCursorImpl;
  class NodeCursorImpl;

  VertexEntry* FindVertex(NodeId u);
  const VertexEntry* FindVertex(NodeId u) const;
  // Pointer to the stored weight of <e, v>, or nullptr when the edge is
  // absent — presence probe and weight access in one lookup, across both
  // the inline-slot and chain representations.
  uint32_t* FindWeight(VertexEntry* e, NodeId v);
  const uint32_t* FindWeight(const VertexEntry* e, NodeId v) const;
  // Core upsert shared by InsertEdge and AddEdgeWeight. Returns the
  // resulting weight and whether the edge is new.
  std::pair<uint64_t, bool> Upsert(NodeId u, NodeId v, uint32_t delta,
                                   bool accumulate);
  void AppendNeighbor(VertexEntry* e, Neighbor n);
  void PlaceVertex(VertexEntry entry);
  // Rebuilds the L-CHT at new_buckets (doubling further on placement
  // failure) and re-places the denylist.
  void RebuildL(size_t new_buckets);
  void MaybeShrinkL();
  void RemoveVertex(NodeId u);

  internal::Chain* NewChain();
  void TransformToChain(VertexEntry* e);
  void ChainInsert(internal::Chain* c, Neighbor n);
  bool ChainErase(internal::Chain* c, NodeId v);
  size_t ChainCells(const internal::Chain& c) const;
  size_t ChainMemory(const internal::Chain& c) const;
  void GrowChain(internal::Chain* c);
  // Rebuilds a chain with the given head size; with_second also creates
  // the fresh half-size second table of the Table II merge step.
  void RebuildChain(internal::Chain* c, size_t head_buckets,
                    bool with_second);
  void MaybeReverseTransform(VertexEntry* e);
  void FreeChain(internal::Chain* c);

  Config config_;
  BobHash h1_;
  BobHash h2_;
  SplitMix64 rng_;
  internal::CuckooTable<VertexEntry> l_;
  std::vector<VertexEntry> l_denylist_;
  size_t num_edges_ = 0;
  TableStats l_stats_;
  TableStats s_stats_;
  uint64_t num_chains_ = 0;
  uint64_t transformations_ = 0;
  uint64_t reverse_transformations_ = 0;
  uint64_t denylist_parks_ = 0;
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_CORE_CUCKOO_GRAPH_H_

// CsrSnapshot layer + analytics/common helpers: dense remapping, induced
// extraction, top-degree selection edge cases (ties, oversized k, empty
// store), and the store -> snapshot -> edge-list round-trip for every
// factory scheme.
#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/common.h"
#include "analytics/csr_snapshot.h"
#include "baselines/hash_map_store.h"
#include "baselines/store_factory.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/weighted_cuckoo_graph.h"
#include "gtest/gtest.h"
#include "test_stores.h"

namespace cuckoograph {
namespace {

using analytics::CsrSnapshot;
using analytics::DenseId;

std::vector<Edge> SortedDistinct(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(CsrSnapshotTest, EmptyStoreYieldsEmptySnapshot) {
  const auto store = MakeStoreByName("CuckooGraph");
  const CsrSnapshot snapshot = CsrSnapshot::FromStore(*store);
  EXPECT_EQ(snapshot.num_nodes(), 0u);
  EXPECT_EQ(snapshot.num_edges(), 0u);
  EXPECT_FALSE(snapshot.has_weights());
  EXPECT_EQ(snapshot.ToDense(7), CsrSnapshot::kAbsent);
  EXPECT_TRUE(snapshot.ExtractEdges().empty());
  EXPECT_TRUE(analytics::TopDegreeNodes(snapshot, 10).empty());
}

TEST(CsrSnapshotTest, DenseRemapIsAscendingAndCoversSinks) {
  // Non-contiguous ids; 900 is a pure sink and must still get a dense id.
  const std::vector<Edge> edges{{50, 900}, {7, 50}, {7, 900}};
  const auto store = MakeStoreByName("CuckooGraph");
  store->InsertEdges(edges);
  const CsrSnapshot snapshot = CsrSnapshot::FromStore(*store);

  ASSERT_EQ(snapshot.num_nodes(), 3u);
  EXPECT_EQ(snapshot.ToOriginal(0), 7u);
  EXPECT_EQ(snapshot.ToOriginal(1), 50u);
  EXPECT_EQ(snapshot.ToOriginal(2), 900u);
  EXPECT_EQ(snapshot.ToDense(900), 2u);
  EXPECT_EQ(snapshot.ToDense(8), CsrSnapshot::kAbsent);

  EXPECT_EQ(snapshot.Degree(snapshot.ToDense(7)), 2u);
  EXPECT_EQ(snapshot.Degree(snapshot.ToDense(900)), 0u);
  EXPECT_TRUE(snapshot.HasEdge(snapshot.ToDense(50), snapshot.ToDense(900)));
  EXPECT_FALSE(snapshot.HasEdge(snapshot.ToDense(900), snapshot.ToDense(50)));
  EXPECT_GT(snapshot.MemoryBytes(), 0u);

  // Neighbor segments come out ascending in dense id.
  const auto neighbors = snapshot.Neighbors(snapshot.ToDense(7));
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_LT(neighbors[0], neighbors[1]);
}

TEST(CsrSnapshotTest, FromEdgesCollapsesDuplicatesAndSumsWeights) {
  const std::vector<Edge> edges{{1, 2}, {1, 2}, {2, 3}};
  const std::vector<uint64_t> weights{4, 5, 7};
  const CsrSnapshot snapshot = CsrSnapshot::FromEdges(edges, weights);
  ASSERT_TRUE(snapshot.has_weights());
  EXPECT_EQ(snapshot.num_edges(), 2u);
  const DenseId one = snapshot.ToDense(1);
  ASSERT_EQ(snapshot.Degree(one), 1u);
  EXPECT_EQ(snapshot.Weights(one)[0], 9u);  // 4 + 5 accumulated

  // Without a weights span duplicates simply collapse.
  const CsrSnapshot unweighted = CsrSnapshot::FromEdges(edges);
  EXPECT_FALSE(unweighted.has_weights());
  EXPECT_EQ(unweighted.num_edges(), 2u);

  // A non-empty weights span must be parallel to the edges.
  const std::vector<uint64_t> short_weights{4};
  EXPECT_THROW(CsrSnapshot::FromEdges(edges, short_weights),
               std::invalid_argument);
}

TEST(CsrSnapshotTest, WeightedStorePopulatesWeights) {
  WeightedCuckooGraph store;
  store.AddEdge(1, 2);
  store.AddEdge(1, 2);
  store.AddEdge(1, 3);
  CsrSnapshot::Options opts;
  opts.with_weights = true;
  const CsrSnapshot snapshot = CsrSnapshot::FromStore(store, opts);
  ASSERT_TRUE(snapshot.has_weights());
  const DenseId one = snapshot.ToDense(1);
  const auto neighbors = snapshot.Neighbors(one);
  const auto weights = snapshot.Weights(one);
  ASSERT_EQ(neighbors.size(), 2u);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const uint64_t expected = snapshot.ToOriginal(neighbors[i]) == 2 ? 2 : 1;
    EXPECT_EQ(weights[i], expected);
  }
}

TEST(CsrSnapshotTest, InducedVariantKeepsListedNodesOnly) {
  const auto store = MakeStoreByName("CuckooGraph");
  store->InsertEdges(std::vector<Edge>{{1, 2}, {2, 3}, {3, 1}, {1, 4}});
  // 9 is absent from the store but listed: a degree-0 member. 4 is stored
  // but unlisted: excluded along with edge <1, 4>. Duplicate listing of 2
  // must not double it.
  const std::vector<NodeId> nodes{1, 2, 3, 9, 2};
  const CsrSnapshot snapshot =
      CsrSnapshot::FromStore(*store, Span<const NodeId>(nodes));
  EXPECT_EQ(snapshot.num_nodes(), 4u);  // 1, 2, 3, 9
  EXPECT_EQ(snapshot.num_edges(), 3u);
  EXPECT_EQ(snapshot.ToDense(4), CsrSnapshot::kAbsent);
  EXPECT_EQ(snapshot.Degree(snapshot.ToDense(9)), 0u);
  const std::vector<Edge> expected{{1, 2}, {2, 3}, {3, 1}};
  EXPECT_EQ(SortedDistinct(snapshot.ExtractEdges()), SortedDistinct(expected));
}

// A store that violates the quiesced-snapshot contract: every walk
// through the selected cursor method slips one more edge into the
// backing store first, the way an un-quiesced concurrent writer would
// land one between the builder's edge-count read and its cursor drain.
// The full-store builder walks Nodes(), the induced builder walks
// Neighbors() per listed node — `mutate_on` picks the injection point.
class MutatingStoreStub final : public GraphStore {
 public:
  enum class MutateOn { kNodes, kNeighbors };

  explicit MutatingStoreStub(MutateOn mutate_on) : mutate_on_(mutate_on) {}

  std::string_view name() const override { return "mutating-stub"; }
  bool InsertEdge(NodeId u, NodeId v) override {
    return backing_.InsertEdge(u, v);
  }
  bool QueryEdge(NodeId u, NodeId v) const override {
    return backing_.QueryEdge(u, v);
  }
  bool DeleteEdge(NodeId u, NodeId v) override {
    return backing_.DeleteEdge(u, v);
  }
  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override {
    if (mutate_on_ == MutateOn::kNeighbors) SlipOneEdgeIn();
    return backing_.Neighbors(u);
  }
  std::unique_ptr<NeighborCursor> Nodes() const override {
    if (mutate_on_ == MutateOn::kNodes) SlipOneEdgeIn();
    return backing_.Nodes();
  }
  size_t NumEdges() const override { return backing_.NumEdges(); }
  size_t NumNodes() const override { return backing_.NumNodes(); }
  size_t MemoryBytes() const override { return backing_.MemoryBytes(); }

 private:
  void SlipOneEdgeIn() const {
    auto* self = const_cast<MutatingStoreStub*>(this);
    self->backing_.InsertEdge(self->next_source_++, 7);
  }

  MutateOn mutate_on_;
  baselines::HashMapStore backing_;
  NodeId next_source_ = 100;
};

TEST(CsrSnapshotTest, FromStoreThrowsWhenStoreMutatesMidBuild) {
  MutatingStoreStub store(MutatingStoreStub::MutateOn::kNodes);
  store.InsertEdge(1, 2);
  EXPECT_THROW(CsrSnapshot::FromStore(store), std::logic_error);
}

TEST(CsrSnapshotTest, InducedFromStoreThrowsWhenStoreMutatesMidBuild) {
  MutatingStoreStub store(MutatingStoreStub::MutateOn::kNeighbors);
  store.InsertEdge(1, 2);
  const std::vector<NodeId> nodes{1, 2};
  EXPECT_THROW(CsrSnapshot::FromStore(store, nodes), std::logic_error);
}

TEST(AnalyticsCommonTest, TopDegreeNodesBreaksTiesByAscendingId) {
  // Degrees: 5 -> 3, 9 -> 2, 2 -> 2, 7 -> 1; the tie between 9 and 2
  // resolves to the smaller id first.
  const std::vector<Edge> edges{{5, 1}, {5, 2}, {5, 3}, {9, 1},
                                {9, 2}, {2, 1}, {2, 3}, {7, 1}};
  const CsrSnapshot snapshot = CsrSnapshot::FromEdges(edges);
  const std::vector<NodeId> expected{5, 2, 9};
  EXPECT_EQ(analytics::TopDegreeNodes(snapshot, 3), expected);
}

TEST(AnalyticsCommonTest, TopDegreeNodesClampsOversizedK) {
  const std::vector<Edge> edges{{1, 2}, {2, 1}};
  const CsrSnapshot snapshot = CsrSnapshot::FromEdges(edges);
  const std::vector<NodeId> all = analytics::TopDegreeNodes(snapshot, 100);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(analytics::TopDegreeNodes(snapshot, 0).empty());
}

TEST(AnalyticsCommonTest, InducedSubgraphFiltersBothEndpoints) {
  const std::vector<Edge> edges{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {2, 1}};
  const CsrSnapshot snapshot = CsrSnapshot::FromEdges(edges);
  const std::vector<Edge> induced =
      analytics::InducedSubgraph(snapshot, {1, 2, 99});
  const std::vector<Edge> expected{{1, 2}, {2, 1}};
  EXPECT_EQ(SortedDistinct(induced), SortedDistinct(expected));
  EXPECT_TRUE(analytics::InducedSubgraph(snapshot, {}).empty());
}

// ---- Round-trip over every store of the matrix ---------------------------

class SnapshotRoundTripTest : public ::testing::TestWithParam<std::string> {
 protected:
  test_stores::StoreMaker maker_;
};

TEST_P(SnapshotRoundTripTest, CsrRebuiltFromStoreEqualsInsertedEdges) {
  SplitMix64 rng(77);
  std::vector<Edge> stream;
  for (int i = 0; i < 8'000; ++i) {
    stream.push_back(Edge{rng.NextBelow(64), rng.NextBelow(500)});
  }
  const auto store = maker_.Make(GetParam());
  store->InsertEdges(stream);

  const CsrSnapshot snapshot = CsrSnapshot::FromStore(*store);
  EXPECT_EQ(snapshot.num_edges(), store->NumEdges());
  EXPECT_EQ(SortedDistinct(snapshot.ExtractEdges()), SortedDistinct(stream));

  // HasEdge agrees with the store on hits and misses.
  for (int i = 0; i < 500; ++i) {
    const Edge probe{rng.NextBelow(64), rng.NextBelow(500)};
    const DenseId u = snapshot.ToDense(probe.u);
    const DenseId v = snapshot.ToDense(probe.v);
    const bool in_snapshot = u != CsrSnapshot::kAbsent &&
                             v != CsrSnapshot::kAbsent &&
                             snapshot.HasEdge(u, v);
    EXPECT_EQ(in_snapshot, store->QueryEdge(probe.u, probe.v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SnapshotRoundTripTest,
                         ::testing::ValuesIn(test_stores::AllStoreNames()),
                         test_stores::ParamName);

}  // namespace
}  // namespace cuckoograph

// Shared GraphStore v2 conformance suite, instantiated for every registry
// scheme and for the DurableStore decorator over CuckooGraph and over
// cuckoo-sharded (tests/test_stores.h). Each behaviour is checked against
// a reference std::map adjacency model so all stores are held to the same
// contract: idempotent insert/delete, exact NumEdges / NumNodes, cursor
// iteration agreement, and batch-op equivalence.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/store_factory.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/graph_store.h"
#include "gtest/gtest.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"
#include "test_stores.h"

namespace cuckoograph {
namespace {

using ReferenceModel = std::map<NodeId, std::set<NodeId>>;

std::vector<NodeId> SortedNeighbors(const GraphStore& store, NodeId u) {
  std::vector<NodeId> out;
  store.ForEachNeighbor(u, [&out](NodeId v) { out.push_back(v); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> SortedNodes(const GraphStore& store) {
  std::vector<NodeId> out;
  store.ForEachNode([&out](NodeId u) { out.push_back(u); });
  std::sort(out.begin(), out.end());
  return out;
}

size_t ModelEdges(const ReferenceModel& model) {
  size_t edges = 0;
  for (const auto& [u, vs] : model) edges += vs.size();
  return edges;
}

class GraphStoreConformanceTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  GraphStoreConformanceTest() : store_(maker_.Make(GetParam())) {}

  test_stores::StoreMaker maker_;  // outlives store_
  std::unique_ptr<GraphStore> store_;
};

TEST_P(GraphStoreConformanceTest, NameMatchesFactoryKey) {
  EXPECT_EQ(std::string(store_->name()), GetParam());
}

TEST_P(GraphStoreConformanceTest, InsertIsIdempotent) {
  EXPECT_TRUE(store_->InsertEdge(1, 2));
  EXPECT_FALSE(store_->InsertEdge(1, 2));
  EXPECT_EQ(store_->NumEdges(), 1u);
  EXPECT_TRUE(store_->QueryEdge(1, 2));
  EXPECT_FALSE(store_->QueryEdge(2, 1));  // directed
}

TEST_P(GraphStoreConformanceTest, DeleteIsIdempotent) {
  if (!store_->Capabilities().deletions) GTEST_SKIP();
  store_->InsertEdge(1, 2);
  EXPECT_TRUE(store_->DeleteEdge(1, 2));
  EXPECT_FALSE(store_->DeleteEdge(1, 2));
  EXPECT_FALSE(store_->QueryEdge(1, 2));
  EXPECT_EQ(store_->NumEdges(), 0u);
  EXPECT_EQ(store_->NumNodes(), 0u);
}

TEST_P(GraphStoreConformanceTest, ExtremeNodeIdsAreOrdinaryKeys) {
  const NodeId lo = 0;
  const NodeId hi = ~NodeId{0};
  EXPECT_TRUE(store_->InsertEdge(lo, hi));
  EXPECT_TRUE(store_->InsertEdge(hi, lo));
  EXPECT_TRUE(store_->QueryEdge(lo, hi));
  EXPECT_TRUE(store_->QueryEdge(hi, lo));
  EXPECT_EQ(SortedNeighbors(*store_, lo), std::vector<NodeId>{hi});
}

TEST_P(GraphStoreConformanceTest, ChurnAgreesWithReferenceModel) {
  const bool deletions = store_->Capabilities().deletions;
  ReferenceModel model;
  SplitMix64 rng(2024);
  for (int i = 0; i < 30'000; ++i) {
    const NodeId u = rng.NextBelow(48);
    const NodeId v = rng.NextBelow(400);
    if (deletions && rng.NextBelow(3) == 0) {
      EXPECT_EQ(store_->DeleteEdge(u, v), model[u].erase(v) > 0);
      if (model[u].empty()) model.erase(u);
    } else {
      EXPECT_EQ(store_->InsertEdge(u, v), model[u].insert(v).second);
    }
  }
  if (model.empty()) return;
  EXPECT_EQ(store_->NumEdges(), ModelEdges(model));
  EXPECT_EQ(store_->NumNodes(), model.size());
  for (const auto& [u, vs] : model) {
    for (const NodeId v : vs) {
      ASSERT_TRUE(store_->QueryEdge(u, v)) << u << "->" << v;
    }
  }
}

TEST_P(GraphStoreConformanceTest, IterationAgreesWithReferenceModel) {
  ReferenceModel model;
  SplitMix64 rng(7);
  for (int i = 0; i < 5'000; ++i) {
    const NodeId u = rng.NextBelow(16);
    const NodeId v = rng.NextBelow(2'000);
    store_->InsertEdge(u, v);
    model[u].insert(v);
  }
  // Nodes() agrees.
  std::vector<NodeId> expected_nodes;
  for (const auto& [u, vs] : model) expected_nodes.push_back(u);
  EXPECT_EQ(SortedNodes(*store_), expected_nodes);
  // Neighbors(u) agrees for every vertex, plus an absent one.
  for (const auto& [u, vs] : model) {
    const std::vector<NodeId> expected(vs.begin(), vs.end());
    EXPECT_EQ(SortedNeighbors(*store_, u), expected) << "u=" << u;
    EXPECT_EQ(store_->OutDegree(u), vs.size());
  }
  EXPECT_TRUE(SortedNeighbors(*store_, 999'999).empty());
  EXPECT_EQ(store_->OutDegree(999'999), 0u);
}

TEST_P(GraphStoreConformanceTest, CursorBlockSizesAreEquivalent) {
  for (NodeId v = 0; v < 500; ++v) store_->InsertEdge(5, v * 7);
  // Draining one id at a time matches draining by large blocks.
  std::vector<NodeId> one_by_one;
  auto cursor = store_->Neighbors(5);
  NodeId id;
  while (cursor->Next(&id, 1) == 1) one_by_one.push_back(id);
  std::vector<NodeId> blocks = SortedNeighbors(*store_, 5);
  std::sort(one_by_one.begin(), one_by_one.end());
  EXPECT_EQ(one_by_one, blocks);
  EXPECT_EQ(one_by_one.size(), 500u);
  // An exhausted cursor stays exhausted.
  EXPECT_EQ(cursor->Next(&id, 1), 0u);
}

TEST_P(GraphStoreConformanceTest, StableIterationIsSortedWhenPromised) {
  if (!store_->Capabilities().stable_iteration) GTEST_SKIP();
  SplitMix64 rng(99);
  for (int i = 0; i < 1'000; ++i) {
    store_->InsertEdge(3, rng.NextBelow(100'000));
  }
  std::vector<NodeId> seen;
  store_->ForEachNeighbor(3, [&seen](NodeId v) { seen.push_back(v); });
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST_P(GraphStoreConformanceTest, BatchOpsAgreeWithSingleOps) {
  SplitMix64 rng(31);
  std::vector<Edge> batch;
  for (int i = 0; i < 4'000; ++i) {
    batch.push_back(Edge{rng.NextBelow(32), rng.NextBelow(300)});
  }
  // A scalar-op twin store is the ground truth for the batch entry points.
  auto twin = maker_.Make(GetParam());
  size_t twin_fresh = 0;
  for (const Edge& e : batch) twin_fresh += twin->InsertEdge(e.u, e.v);

  EXPECT_EQ(store_->InsertEdges(batch), twin_fresh);
  EXPECT_EQ(store_->NumEdges(), twin->NumEdges());
  EXPECT_EQ(store_->NumNodes(), twin->NumNodes());
  for (NodeId u = 0; u < 32; ++u) {
    ASSERT_EQ(SortedNeighbors(*store_, u), SortedNeighbors(*twin, u));
  }

  EXPECT_EQ(store_->QueryEdges(batch), batch.size());
  std::vector<Edge> misses{{1'000'000, 1}, {1, 1'000'000}};
  EXPECT_EQ(store_->QueryEdges(misses), 0u);

  if (store_->Capabilities().deletions) {
    const size_t distinct = store_->NumEdges();
    EXPECT_EQ(store_->DeleteEdges(batch), distinct);  // dups already gone
    EXPECT_EQ(store_->NumEdges(), 0u);
    EXPECT_EQ(store_->NumNodes(), 0u);
  }
}

TEST_P(GraphStoreConformanceTest, EdgeWeightHonorsWeightedCapability) {
  EXPECT_EQ(store_->EdgeWeight(1, 2), 0u);  // absent edge
  store_->InsertEdge(1, 2);
  EXPECT_EQ(store_->EdgeWeight(1, 2), 1u);
  store_->InsertEdge(1, 2);  // duplicate arrival
  const uint64_t expected = store_->Capabilities().weighted ? 2 : 1;
  EXPECT_EQ(store_->EdgeWeight(1, 2), expected);
  EXPECT_EQ(store_->NumEdges(), 1u);
}

TEST_P(GraphStoreConformanceTest, EmptyBatchesAreNoOps) {
  EXPECT_EQ(store_->InsertEdges(Span<const Edge>()), 0u);
  EXPECT_EQ(store_->QueryEdges(Span<const Edge>()), 0u);
  if (store_->Capabilities().deletions) {
    EXPECT_EQ(store_->DeleteEdges(Span<const Edge>()), 0u);
  }
  EXPECT_EQ(store_->NumEdges(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, GraphStoreConformanceTest,
                         ::testing::ValuesIn(test_stores::AllStoreNames()),
                         test_stores::ParamName);

// ---- Factory contract ------------------------------------------------------

TEST(StoreFactoryTest, MakesEveryRegisteredScheme) {
  for (const std::string& name : AllSchemeNames()) {
    auto store = MakeStoreByName(name);
    ASSERT_NE(store, nullptr) << name;
    EXPECT_EQ(std::string(store->name()), name);
  }
}

TEST(StoreFactoryTest, SchemeOrderIsThePapersColumnOrder) {
  // The paper's comparison columns first, then the extended in-memory
  // stores (weighted, the concurrent sharded front-end).
  const std::vector<std::string> expected{
      "CuckooGraph",  "AdjacencyList",   "HashMap",
      "SortedVector", "cuckoo-weighted", "cuckoo-sharded"};
  EXPECT_EQ(AllSchemeNames(), expected);
}

TEST(StoreFactoryTest, ShardedSchemeAdvertisesConcurrency) {
  // The sharded front-end is the only registry scheme that does.
  for (const std::string& name : AllSchemeNames()) {
    EXPECT_EQ(MakeStoreByName(name)->Capabilities().concurrent_mutations,
              name == "cuckoo-sharded")
        << name;
  }
}

TEST(StoreFactoryTest, DurableSchemesAdvertiseDurability) {
  // No registry scheme is durable. The decorator sets `durable` over
  // any of them and inherits every other capability, concurrent
  // mutations included.
  test_stores::StoreMaker maker;
  for (const std::string& name : AllSchemeNames()) {
    const StoreCapabilities inner = MakeStoreByName(name)->Capabilities();
    EXPECT_FALSE(inner.durable) << name;
    const StoreCapabilities wrapped =
        maker.Wrap(MakeStoreByName(name), name + "-durable")->Capabilities();
    EXPECT_TRUE(wrapped.durable) << name;
    EXPECT_EQ(wrapped.concurrent_mutations, inner.concurrent_mutations)
        << name;
    EXPECT_EQ(wrapped.weighted, inner.weighted) << name;
    EXPECT_EQ(wrapped.deletions, inner.deletions) << name;
    EXPECT_EQ(wrapped.stable_iteration, inner.stable_iteration) << name;
  }
}

TEST(StoreFactoryTest, WeightedSchemeAdvertisesWeights) {
  const auto store = MakeStoreByName("cuckoo-weighted");
  EXPECT_TRUE(store->Capabilities().weighted);
  // It is the only built-in that does.
  for (const std::string& name : AllSchemeNames()) {
    if (name == "cuckoo-weighted") continue;
    EXPECT_FALSE(MakeStoreByName(name)->Capabilities().weighted) << name;
  }
}

TEST(StoreFactoryTest, UnknownNameFailsListingValidSchemes) {
  try {
    MakeStoreByName("NoSuchScheme");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("NoSuchScheme"), std::string::npos);
    for (const std::string& name : AllSchemeNames()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

TEST(StoreFactoryTest, ParseSchemesFlagSelectsAndValidates) {
  EXPECT_EQ(ParseSchemesFlag(""), AllSchemeNames());
  const std::vector<std::string> two{"HashMap", "CuckooGraph"};
  EXPECT_EQ(ParseSchemesFlag("HashMap,CuckooGraph"), two);
  EXPECT_THROW(ParseSchemesFlag("CuckooGraph,Bogus"), std::invalid_argument);
}

TEST(StoreFactoryTest, DuplicateRegistrationIsRejected) {
  EXPECT_FALSE(RegisterStore("CuckooGraph", nullptr));
}

// ---- Durability conformance ------------------------------------------------
// The decorator additionally promises that a store reopened over the
// same directory equals the store at close: write -> close -> recover ->
// verify, through both the WAL-replay and the snapshot recovery paths.

class DurableConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    std::string error;
    dir_ = persist::MakeTempDir("conformance-durable-", &error);
    ASSERT_FALSE(dir_.empty()) << error;
  }
  void TearDown() override { persist::RemoveDirTree(dir_); }

  // Opens (or reopens, recovering) DurableStore over a fresh instance of
  // the inner scheme in dir_.
  std::unique_ptr<persist::DurableStore> Open(
      WalSyncMode mode = WalSyncMode::kNone, size_t checkpoint_every = 0) {
    persist::DurableOptions opts;
    opts.dir = dir_;
    opts.sync_mode = mode;
    opts.checkpoint_every_records = checkpoint_every;
    return test_stores::OpenDurable(
        MakeStoreByName(test_stores::DurableInner(GetParam())), GetParam(),
        opts);
  }

  std::string dir_;
};

TEST_P(DurableConformanceTest, EmptyStoreRecoversEmpty) {
  Open().reset();  // open, log nothing, close
  auto reopened = Open();
  EXPECT_EQ(reopened->NumEdges(), 0u);
  EXPECT_EQ(reopened->NumNodes(), 0u);
  EXPECT_FALSE(reopened->recovery().snapshot_loaded);
  EXPECT_EQ(reopened->recovery().replayed_records, 0u);
}

TEST_P(DurableConformanceTest, WriteCloseRecoverVerify) {
  ReferenceModel model;
  {
    auto store = Open();
    SplitMix64 rng(512);
    std::vector<Edge> batch;
    for (int i = 0; i < 3'000; ++i) {
      batch.push_back(Edge{rng.NextBelow(40), rng.NextBelow(300)});
    }
    store->InsertEdges(batch);
    for (const Edge& e : batch) model[e.u].insert(e.v);
    for (int i = 0; i < 2'000; ++i) {  // scalar churn on top of the batch
      const NodeId u = rng.NextBelow(40);
      const NodeId v = rng.NextBelow(300);
      if (rng.NextBelow(4) == 0) {
        store->DeleteEdge(u, v);
        model[u].erase(v);
        if (model[u].empty()) model.erase(u);
      } else {
        store->InsertEdge(u, v);
        model[u].insert(v);
      }
    }
  }
  auto reopened = Open();
  EXPECT_FALSE(reopened->recovery().snapshot_loaded);
  EXPECT_GT(reopened->recovery().replayed_records, 0u);
  ASSERT_EQ(reopened->NumEdges(), ModelEdges(model));
  ASSERT_EQ(reopened->NumNodes(), model.size());
  for (const auto& [u, vs] : model) {
    EXPECT_EQ(SortedNeighbors(*reopened, u),
              std::vector<NodeId>(vs.begin(), vs.end()))
        << "u=" << u;
  }
}

TEST_P(DurableConformanceTest, DeleteThenRecoverStaysDeleted) {
  {
    auto store = Open();
    store->InsertEdge(1, 2);
    store->InsertEdge(1, 3);
    store->DeleteEdge(1, 2);
  }
  auto reopened = Open();
  EXPECT_FALSE(reopened->QueryEdge(1, 2));
  EXPECT_TRUE(reopened->QueryEdge(1, 3));
  EXPECT_EQ(reopened->NumEdges(), 1u);
}

TEST_P(DurableConformanceTest, CheckpointThenRecoverUsesSnapshot) {
  ReferenceModel model;
  {
    auto store = Open();
    SplitMix64 rng(77);
    for (int i = 0; i < 2'000; ++i) {
      const NodeId u = rng.NextBelow(30);
      const NodeId v = rng.NextBelow(500);
      store->InsertEdge(u, v);
      model[u].insert(v);
    }
    std::string error;
    ASSERT_TRUE(store->Checkpoint(&error)) << error;
    // Post-checkpoint tail lands in the truncated WAL.
    store->InsertEdge(7, 100'001);
    model[7].insert(100'001);
    store->DeleteEdge(7, 100'001);
    model[7].erase(100'001);
  }
  auto reopened = Open();
  EXPECT_TRUE(reopened->recovery().snapshot_loaded);
  EXPECT_EQ(reopened->recovery().replayed_records, 2u);
  ASSERT_EQ(reopened->NumEdges(), ModelEdges(model));
  for (const auto& [u, vs] : model) {
    EXPECT_EQ(SortedNeighbors(*reopened, u),
              std::vector<NodeId>(vs.begin(), vs.end()))
        << "u=" << u;
  }
}

TEST_P(DurableConformanceTest, AutoCheckpointTruncatesTheWal) {
  auto store = Open(WalSyncMode::kNone, /*checkpoint_every=*/64);
  for (NodeId v = 0; v < 200; ++v) store->InsertEdge(1, v);
  const auto stats = store->durable_stats();
  EXPECT_GE(stats.checkpoints, 1u) << stats.last_checkpoint_error;
  EXPECT_GE(stats.wal.truncations, 1u);
  store.reset();
  auto reopened = Open();
  EXPECT_TRUE(reopened->recovery().snapshot_loaded);
  EXPECT_EQ(reopened->NumEdges(), 200u);
}

TEST_P(DurableConformanceTest, SyncModesAllRecover) {
  for (const WalSyncMode mode :
       {WalSyncMode::kAlways, WalSyncMode::kGroup, WalSyncMode::kNone}) {
    const NodeId u = static_cast<NodeId>(1000 + static_cast<int>(mode));
    {
      auto store = Open(mode);
      store->InsertEdge(u, 1);
    }
    auto reopened = Open();
    EXPECT_TRUE(reopened->QueryEdge(u, 1))
        << "mode=" << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(DurableSchemes, DurableConformanceTest,
                         ::testing::Values("cuckoo-durable",
                                           "cuckoo-sharded-durable"),
                         test_stores::ParamName);

}  // namespace
}  // namespace cuckoograph

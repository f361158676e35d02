// ShardedCuckooGraph: shard routing/normalization checks plus the
// multi-threaded stress suite — concurrent insert/query/delete on
// disjoint and overlapping key ranges, with the final state checked
// against a single-threaded oracle. (The full GraphStore v2 contract is
// covered scheme-parameterized in graph_store_conformance_test.cc; this
// file covers what a single-threaded harness cannot.) The
// ShardedConcurrencyTest suite at the end races locked readers against
// writers that force every structural mutation. CI additionally runs
// this binary under ThreadSanitizer.
#include <atomic>
#include <cstddef>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "common/types.h"
#include "core/config.h"
#include "core/sharded_cuckoo_graph.h"
#include "gtest/gtest.h"

namespace cuckoograph {
namespace {

constexpr int kThreads = 4;

using ReferenceModel = std::map<NodeId, std::set<NodeId>>;

size_t ModelEdges(const ReferenceModel& model) {
  size_t edges = 0;
  for (const auto& [u, vs] : model) edges += vs.size();
  return edges;
}

// One deterministic insert/delete churn op stream over a source range.
// Replaying it single-threaded into a ReferenceModel is the oracle for a
// thread that ran it against the shared store.
struct ChurnOp {
  Edge edge;
  bool is_delete;
};

std::vector<ChurnOp> MakeChurn(uint64_t seed, NodeId src_base,
                               NodeId src_range, size_t ops) {
  SplitMix64 rng(seed);
  std::vector<ChurnOp> churn;
  churn.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    ChurnOp op;
    op.edge.u = src_base + rng.NextBelow(src_range);
    op.edge.v = rng.NextBelow(200);
    op.is_delete = rng.NextBelow(3) == 0;
    churn.push_back(op);
  }
  return churn;
}

void ApplyToModel(const std::vector<ChurnOp>& churn, ReferenceModel* model) {
  for (const ChurnOp& op : churn) {
    if (op.is_delete) {
      (*model)[op.edge.u].erase(op.edge.v);
      if ((*model)[op.edge.u].empty()) model->erase(op.edge.u);
    } else {
      (*model)[op.edge.u].insert(op.edge.v);
    }
  }
}

TEST(ShardedCuckooGraphTest, ShardCountIsClampedAndReported) {
  Config config;
  config.num_shards = 0;
  EXPECT_EQ(ShardedCuckooGraph(config).num_shards(), 1u);
  config.num_shards = 5;
  EXPECT_EQ(ShardedCuckooGraph(config).num_shards(), 5u);
  EXPECT_EQ(ShardedCuckooGraph().num_shards(), Config().num_shards);
}

TEST(ShardedCuckooGraphTest, RoutingSpreadsSourcesAcrossShards) {
  Config config;
  config.num_shards = 8;
  ShardedCuckooGraph store(config);
  std::vector<size_t> hits(store.num_shards(), 0);
  for (NodeId u = 0; u < 4'000; ++u) {
    const size_t shard = store.ShardOf(u);
    ASSERT_LT(shard, store.num_shards());
    ++hits[shard];
  }
  for (size_t s = 0; s < hits.size(); ++s) {
    // A uniform split would be 500 per shard; demand no shard starves.
    EXPECT_GT(hits[s], 200u) << "shard " << s;
  }
}

TEST(ShardedCuckooGraphTest, SingleThreadedChurnAgreesWithOracle) {
  Config config;
  config.num_shards = 3;  // odd count, exercises the modulo reduction
  ShardedCuckooGraph store(config);
  const auto churn = MakeChurn(11, 0, 64, 20'000);
  ReferenceModel model;
  for (const ChurnOp& op : churn) {
    if (op.is_delete) {
      const bool erased = model[op.edge.u].erase(op.edge.v) > 0;
      if (model[op.edge.u].empty()) model.erase(op.edge.u);
      EXPECT_EQ(store.DeleteEdge(op.edge.u, op.edge.v), erased);
    } else {
      EXPECT_EQ(store.InsertEdge(op.edge.u, op.edge.v),
                model[op.edge.u].insert(op.edge.v).second);
    }
  }
  EXPECT_EQ(store.NumEdges(), ModelEdges(model));
  EXPECT_EQ(store.NumNodes(), model.size());
}

// Disjoint source ranges: each thread churns its own range, so every
// thread's op stream is serialized relative to itself and the oracle is
// its single-threaded replay.
TEST(ShardedCuckooGraphTest, ConcurrentDisjointRangesMatchOracle) {
  ShardedCuckooGraph store;
  std::vector<std::vector<ChurnOp>> churns;
  for (int t = 0; t < kThreads; ++t) {
    churns.push_back(MakeChurn(100 + static_cast<uint64_t>(t),
                               static_cast<NodeId>(t) * 10'000, 96,
                               30'000));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &churns, t] {
      for (const ChurnOp& op : churns[t]) {
        if (op.is_delete) {
          store.DeleteEdge(op.edge.u, op.edge.v);
        } else {
          store.InsertEdge(op.edge.u, op.edge.v);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ReferenceModel model;
  for (const auto& churn : churns) ApplyToModel(churn, &model);
  EXPECT_EQ(store.NumEdges(), ModelEdges(model));
  EXPECT_EQ(store.NumNodes(), model.size());
  for (const auto& [u, vs] : model) {
    ASSERT_EQ(store.OutDegree(u), vs.size()) << "u=" << u;
    for (const NodeId v : vs) {
      ASSERT_TRUE(store.QueryEdge(u, v)) << u << "->" << v;
    }
  }
}

// Overlapping inserts: every thread pushes the same edge list (rotated so
// arrival orders differ). Insertion is idempotent, so the final state is
// the distinct set and each fresh edge is claimed by exactly one thread.
TEST(ShardedCuckooGraphTest, ConcurrentOverlappingInsertsConvergeToUnion) {
  ShardedCuckooGraph store;
  SplitMix64 rng(7);
  std::vector<Edge> edges;
  std::set<uint64_t> distinct;
  for (int i = 0; i < 20'000; ++i) {
    const Edge e{rng.NextBelow(300), rng.NextBelow(300)};
    edges.push_back(e);
    distinct.insert(EdgeKey(e));
  }
  std::atomic<size_t> fresh_total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &edges, &fresh_total, t] {
      const size_t start = edges.size() / kThreads * static_cast<size_t>(t);
      size_t fresh = 0;
      for (size_t i = 0; i < edges.size(); ++i) {
        const Edge& e = edges[(start + i) % edges.size()];
        fresh += store.InsertEdge(e.u, e.v) ? 1 : 0;
      }
      fresh_total += fresh;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(store.NumEdges(), distinct.size());
  EXPECT_EQ(fresh_total.load(), distinct.size());
  for (const Edge& e : edges) ASSERT_TRUE(store.QueryEdge(e.u, e.v));
}

// Overlapping deletes: after a concurrent preload, every thread tries to
// delete the same target subset. Deletion is idempotent, so each target
// edge's successful delete happens on exactly one thread.
TEST(ShardedCuckooGraphTest, ConcurrentOverlappingDeletesRemoveEachOnce) {
  ShardedCuckooGraph store;
  SplitMix64 rng(13);
  std::set<uint64_t> distinct;
  std::vector<Edge> edges;
  for (int i = 0; i < 12'000; ++i) {
    const Edge e{rng.NextBelow(250), rng.NextBelow(250)};
    if (distinct.insert(EdgeKey(e)).second) edges.push_back(e);
  }
  store.InsertEdges(edges);
  ASSERT_EQ(store.NumEdges(), edges.size());

  // Every third distinct edge is a delete target.
  std::vector<Edge> targets;
  for (size_t i = 0; i < edges.size(); i += 3) targets.push_back(edges[i]);

  std::atomic<size_t> removed_total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &targets, &removed_total, t] {
      const size_t start =
          targets.size() / kThreads * static_cast<size_t>(t);
      size_t removed = 0;
      for (size_t i = 0; i < targets.size(); ++i) {
        const Edge& e = targets[(start + i) % targets.size()];
        removed += store.DeleteEdge(e.u, e.v) ? 1 : 0;
      }
      removed_total += removed;
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(removed_total.load(), targets.size());
  EXPECT_EQ(store.NumEdges(), edges.size() - targets.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_EQ(store.QueryEdge(edges[i].u, edges[i].v), i % 3 != 0);
  }
}

// The batch entry points under concurrency: threads drive disjoint source
// ranges through InsertEdges/QueryEdges/DeleteEdges spans (the per-shard
// grouped path) instead of scalar calls.
TEST(ShardedCuckooGraphTest, ConcurrentBatchOpsMatchOracle) {
  ShardedCuckooGraph store;
  std::vector<std::vector<ChurnOp>> churns;
  for (int t = 0; t < kThreads; ++t) {
    churns.push_back(MakeChurn(500 + static_cast<uint64_t>(t),
                               static_cast<NodeId>(t) * 10'000, 80,
                               24'000));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &churns, t] {
      // Split the churn into alternating insert and delete batches.
      constexpr size_t kBatch = 512;
      std::vector<Edge> inserts, deletes;
      for (const ChurnOp& op : churns[t]) {
        (op.is_delete ? deletes : inserts).push_back(op.edge);
        if (inserts.size() >= kBatch) {
          store.InsertEdges(inserts);
          inserts.clear();
        }
        if (deletes.size() >= kBatch) {
          store.DeleteEdges(deletes);
          deletes.clear();
        }
      }
      store.InsertEdges(inserts);
      store.DeleteEdges(deletes);
    });
  }
  for (std::thread& th : threads) th.join();

  // The batch split reorders ops within a window, so replay the same
  // batched sequence (not the raw churn) as the oracle.
  ReferenceModel model;
  for (const auto& churn : churns) {
    constexpr size_t kBatch = 512;
    std::vector<ChurnOp> inserts, deletes;
    const auto flush = [&model](std::vector<ChurnOp>* batch) {
      for (const ChurnOp& op : *batch) {
        if (op.is_delete) {
          model[op.edge.u].erase(op.edge.v);
          if (model[op.edge.u].empty()) model.erase(op.edge.u);
        } else {
          model[op.edge.u].insert(op.edge.v);
        }
      }
      batch->clear();
    };
    for (const ChurnOp& op : churn) {
      (op.is_delete ? deletes : inserts).push_back(op);
      if (inserts.size() >= kBatch) flush(&inserts);
      if (deletes.size() >= kBatch) flush(&deletes);
    }
    flush(&inserts);
    flush(&deletes);
  }
  EXPECT_EQ(store.NumEdges(), ModelEdges(model));
  EXPECT_EQ(store.NumNodes(), model.size());
  for (const auto& [u, vs] : model) {
    std::vector<Edge> queries;
    for (const NodeId v : vs) queries.push_back(Edge{u, v});
    ASSERT_EQ(store.QueryEdges(queries), queries.size()) << "u=" << u;
  }
}

// Readers over a preloaded range stay consistent while writers churn a
// different range (shards serialize ops; readers must never see a torn
// edge). Under TSan this is the reader/writer race check.
TEST(ShardedCuckooGraphTest, ConcurrentReadersSeeConsistentState) {
  ShardedCuckooGraph store;
  constexpr NodeId kReadBase = 1'000'000;
  std::vector<Edge> preload;
  for (NodeId i = 0; i < 2'000; ++i) {
    preload.push_back(Edge{kReadBase + i % 97, i});
  }
  store.InsertEdges(preload);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads - 1; ++t) {
    readers.emplace_back([&store, &preload, &stop, &failed] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Edge& e = preload[i++ % preload.size()];
        if (!store.QueryEdge(e.u, e.v) ||
            store.EdgeWeight(e.u, e.v) != 1) {
          failed.store(true);
          return;
        }
      }
    });
  }
  std::thread writer([&store] {
    const auto churn = MakeChurn(77, 0, 128, 60'000);
    for (const ChurnOp& op : churn) {
      if (op.is_delete) {
        store.DeleteEdge(op.edge.u, op.edge.v);
      } else {
        store.InsertEdge(op.edge.u, op.edge.v);
      }
    }
  });
  writer.join();
  stop.store(true);
  for (std::thread& th : readers) th.join();
  EXPECT_FALSE(failed.load());
}

// ---- Readers racing structural churn ---------------------------------------
//
// Writers force every structural mutation of a shard's CuckooGraph —
// TRANSFORMATION (inline slots promoted to an S-CHT chain), chain growth
// and merge rebuilds, L-CHT doubling and shrinking, and
// reverse-TRANSFORMATION (chains collapsing back to inline slots under
// deletions) — while readers probe under the stripe lock. Each test
// keeps a set of sentinel edges that are never mutated, so a racing
// reader has an exact oracle for every probe no matter how the writer
// interleaves.

// Small tables + few shards: structural churn (rebuilds, growth) happens
// constantly and per-shard writer/reader collisions are frequent.
Config StressConfig() {
  Config config;
  config.num_shards = 2;
  config.l_initial_buckets = 1;
  config.s_initial_buckets = 1;
  return config;
}

constexpr NodeId kHubs = 8;            // sentinel sources 0..kHubs-1
constexpr NodeId kSentinelV = 0;       // (h, 0) is inserted once, never touched
constexpr NodeId kAbsentV = 1u << 20;  // never inserted anywhere

void InsertSentinels(ShardedCuckooGraph* graph) {
  for (NodeId h = 0; h < kHubs; ++h) {
    ASSERT_TRUE(graph->InsertEdge(h, kSentinelV));
  }
}

// A reader thread: probes sentinel-present and known-absent edges (plus
// degree and weight) until told to stop, checking every answer against
// the invariants the writer preserves. Always runs at least one full
// pass (a fast writer may finish before this thread is scheduled).
// Returns how many reads ran.
size_t ReaderLoop(const ShardedCuckooGraph& graph,
                  const std::atomic<bool>& stop) {
  size_t probes = 0;
  std::vector<Edge> batch;
  do {
    for (NodeId h = 0; h < kHubs; ++h) {
      EXPECT_TRUE(graph.QueryEdge(h, kSentinelV));
      EXPECT_FALSE(graph.QueryEdge(h, kAbsentV));
      EXPECT_EQ(graph.EdgeWeight(h, kSentinelV), 1u);
      EXPECT_GE(graph.OutDegree(h), 1u);  // the sentinel never leaves
      probes += 4;
    }
    // Batch path: kHubs pinned-present + kHubs never-present edges must
    // count exactly kHubs regardless of writer interleaving.
    batch.clear();
    for (NodeId h = 0; h < kHubs; ++h) {
      batch.push_back(Edge{h, kSentinelV});
      batch.push_back(Edge{h, kAbsentV});
    }
    EXPECT_EQ(graph.QueryEdges(Span<const Edge>(batch.data(),
                                                batch.size())),
              static_cast<size_t>(kHubs));
    probes += batch.size();
  } while (!stop.load(std::memory_order_acquire));
  return probes;
}

// Writer A: drives each hub's degree up past the inline threshold and
// far enough to append and merge chain tables (TRANSFORMATION + Table II
// growth), then back down to the sentinel alone (reverse-TRANSFORMATION
// and chain shrink), over and over.
void TransformChurnWriter(ShardedCuckooGraph* graph, int rounds,
                          NodeId fan) {
  for (int r = 0; r < rounds; ++r) {
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= fan; ++v) graph->InsertEdge(h, v);
    }
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= fan; ++v) graph->DeleteEdge(h, v);
    }
  }
}

// Writer B: floods fresh source vertices to force L-CHT doubling
// rebuilds, then removes them all so the shrink path rebuilds smaller.
void LTableChurnWriter(ShardedCuckooGraph* graph, int rounds,
                       NodeId vertices) {
  const NodeId base = 1u << 16;  // disjoint from hub sources
  for (int r = 0; r < rounds; ++r) {
    for (NodeId u = 0; u < vertices; ++u) {
      graph->InsertEdge(base + u, 1);
    }
    for (NodeId u = 0; u < vertices; ++u) {
      graph->DeleteEdge(base + u, 1);
    }
  }
}

TEST(ShardedConcurrencyTest, ReadersRaceTransformationStorm) {
  ShardedCuckooGraph graph(StressConfig());
  InsertSentinels(&graph);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<size_t> probes(4, 0);
  for (size_t t = 0; t < probes.size(); ++t) {
    readers.emplace_back([&graph, &stop, &probes, t] {
      probes[t] = ReaderLoop(graph, stop);
    });
  }
  // Fan of 64 per hub: crosses the inline threshold (TRANSFORMATION),
  // appends chain tables, and triggers merge-and-double rebuilds.
  TransformChurnWriter(&graph, /*rounds=*/40, /*fan=*/64);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t p : probes) EXPECT_GT(p, 0u);
  // Every read was served, and counted, under the stripe lock.
  const auto rp = graph.read_path_stats();
  EXPECT_EQ(rp.optimistic, 0u);
  EXPECT_EQ(rp.locked, std::accumulate(probes.begin(), probes.end(),
                                       size_t{0}));
  // Quiesced end state: only the sentinels remain.
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(kHubs));
  for (NodeId h = 0; h < kHubs; ++h) {
    EXPECT_EQ(graph.OutDegree(h), 1u);
  }
}

TEST(ShardedConcurrencyTest, ReadersRaceReverseTransformationDeletes) {
  ShardedCuckooGraph graph(StressConfig());
  InsertSentinels(&graph);
  // Start every hub above the inline threshold so the writer's first
  // act is deletion pressure that collapses chains back to inline.
  for (NodeId h = 0; h < kHubs; ++h) {
    for (NodeId v = 1; v <= 32; ++v) ASSERT_TRUE(graph.InsertEdge(h, v));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<size_t> probes(4, 0);
  for (size_t t = 0; t < probes.size(); ++t) {
    readers.emplace_back([&graph, &stop, &probes, t] {
      probes[t] = ReaderLoop(graph, stop);
    });
  }
  for (int r = 0; r < 60; ++r) {
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= 32; ++v) graph.DeleteEdge(h, v);
    }
    for (NodeId h = 0; h < kHubs; ++h) {
      for (NodeId v = 1; v <= 32; ++v) graph.InsertEdge(h, v);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t p : probes) EXPECT_GT(p, 0u);
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(kHubs) * 33);
}

TEST(ShardedConcurrencyTest, ReadersRaceLTableRebuilds) {
  ShardedCuckooGraph graph(StressConfig());
  InsertSentinels(&graph);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::vector<size_t> probes(4, 0);
  for (size_t t = 0; t < probes.size(); ++t) {
    readers.emplace_back([&graph, &stop, &probes, t] {
      probes[t] = ReaderLoop(graph, stop);
    });
  }
  LTableChurnWriter(&graph, /*rounds=*/30, /*vertices=*/512);
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (size_t p : probes) EXPECT_GT(p, 0u);
  EXPECT_EQ(graph.NumEdges(), static_cast<size_t>(kHubs));
}

}  // namespace
}  // namespace cuckoograph

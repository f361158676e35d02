// The parallel analytics engine's differential proof. Every parallel
// kernel variant is checked against its 1-thread sequential reference on
// deterministic graph families (path, star, two-component, Erdős–Rényi,
// preferential-attachment skew) across thread budgets {1, 2, 4, hardware}
// and every store of tests/test_stores.h:
//
//   - BFS depths, SSSP distances, CC labels, TC counts, LCC scores:
//     exact equality (the contracts are deterministic — level sets,
//     unique distance fixed points, disjoint integer writes);
//   - BFS parent trees: validity-checked, not compared (which predecessor
//     wins a level is scheduling-dependent);
//   - PageRank: <= 1e-9 per node (float association order moves).
//
// The snapshot side: the parallel CsrSnapshot builder must be
// byte-identical to the sequential one — offsets, neighbor order,
// accumulated weights, dense remap — and must still throw std::logic_error
// when the store's edge count drifts mid-build. The snapshot's shared
// in-edge transpose must hold every vertex's in-neighbor multiset at any
// build budget, be empty on empty and moved-from snapshots, and survive
// concurrent BFS callers racing its first build. The suite name is wired
// into the TSan CI regex, so every claim here is also raced.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/bfs.h"
#include "analytics/connected_components.h"
#include "analytics/csr_snapshot.h"
#include "analytics/kernel.h"
#include "analytics/lcc.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/triangle_count.h"
#include "baselines/hash_map_store.h"
#include "baselines/store_factory.h"
#include "common/rng.h"
#include "common/types.h"
#include "gtest/gtest.h"
#include "test_stores.h"

namespace cuckoograph {
namespace {

using analytics::CsrSnapshot;
using analytics::DenseId;
using analytics::KernelOptions;
using analytics::KernelResult;
using analytics::kUnreached;

// ---- Graph families -------------------------------------------------------

struct GraphCase {
  std::string name;
  std::vector<Edge> stream;  // may contain duplicate arrivals
  std::vector<NodeId> sources;
};

// Ids are spread out (i * 7 + 3) so the dense remap is always exercised,
// and every stream repeats its first edge so weighted schemes carry a
// weight-2 edge through the differential runs.
std::vector<GraphCase> DifferentialCases() {
  const auto id = [](uint64_t i) { return static_cast<NodeId>(i * 7 + 3); };
  std::vector<GraphCase> cases;

  {
    GraphCase path{"path", {}, {id(0), id(40)}};
    for (uint64_t i = 0; i + 1 < 64; ++i) {
      path.stream.push_back(Edge{id(i), id(i + 1)});
    }
    cases.push_back(std::move(path));
  }
  {
    // Hub <-> 40 leaves: the dense hub frontier forces the BFS bottom-up
    // switch (scout count ~ 41 against 80 edges).
    GraphCase star{"star", {}, {id(0), id(7)}};
    for (uint64_t leaf = 1; leaf <= 40; ++leaf) {
      star.stream.push_back(Edge{id(0), id(leaf)});
      star.stream.push_back(Edge{id(leaf), id(0)});
    }
    cases.push_back(std::move(star));
  }
  {
    // A 20-ring and a disjoint bidirectional 8-clique: unreached vertices
    // stay kUnreached at every budget.
    GraphCase two{"two_components", {}, {id(0), id(100)}};
    for (uint64_t i = 0; i < 20; ++i) {
      two.stream.push_back(Edge{id(i), id((i + 1) % 20)});
    }
    for (uint64_t a = 100; a < 108; ++a) {
      for (uint64_t b = 100; b < 108; ++b) {
        if (a != b) two.stream.push_back(Edge{id(a), id(b)});
      }
    }
    cases.push_back(std::move(two));
  }
  {
    // Erdős–Rényi n=120, p≈0.03, deterministic seed; plus a handful of
    // duplicate arrivals so weighted schemes accumulate.
    GraphCase er{"erdos_renyi", {}, {id(1), id(60), id(119)}};
    SplitMix64 rng(0xE4D05u);
    for (uint64_t u = 0; u < 120; ++u) {
      for (uint64_t v = 0; v < 120; ++v) {
        if (u != v && rng.NextDouble() < 0.03) {
          er.stream.push_back(Edge{id(u), id(v)});
        }
      }
    }
    for (size_t i = 0; i < 10 && i < er.stream.size(); ++i) {
      er.stream.push_back(er.stream[i * 3 % er.stream.size()]);
    }
    cases.push_back(std::move(er));
  }
  {
    // Preferential-attachment skew: vertex i attaches to min of two
    // uniform draws below i, biasing edges toward early (high-degree)
    // vertices — the power-law-ish family.
    GraphCase pa{"power_law", {}, {id(0), id(3), id(149)}};
    SplitMix64 rng(0x9A11u);
    for (uint64_t i = 1; i < 150; ++i) {
      for (int k = 0; k < 2; ++k) {
        const uint64_t a = rng.NextBelow64(i);
        const uint64_t b = rng.NextBelow64(i);
        const uint64_t target = a < b ? a : b;
        pa.stream.push_back(Edge{id(i), id(target)});
        pa.stream.push_back(Edge{id(target), id(i)});
      }
    }
    cases.push_back(std::move(pa));
  }

  for (auto& c : cases) {
    c.stream.push_back(c.stream.front());  // duplicate arrival
    c.sources.push_back(424242);           // absent id, must be ignored
  }
  return cases;
}

// 1 (trivial parity), 2, 4, and whatever the host offers.
std::vector<size_t> ThreadBudgets() {
  std::vector<size_t> budgets{1, 2, 4};
  const size_t hw = std::thread::hardware_concurrency();
  if (hw > 0) budgets.push_back(hw);
  std::sort(budgets.begin(), budgets.end());
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
  return budgets;
}

// A tiny grain so even the small families split into many chunks.
KernelOptions OptsFor(size_t threads) {
  KernelOptions opts;
  opts.num_threads = threads;
  opts.grain = 4;
  return opts;
}

void ExpectExact(const KernelResult& got, const KernelResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.per_node, want.per_node) << what;
  EXPECT_EQ(got.aggregate, want.aggregate) << what;
}

// The BFS tree validity checker: parents are scheduling-dependent, but
// every tree the kernel may emit satisfies this.
void CheckBfsTree(const CsrSnapshot& graph, const KernelResult& bfs_result,
                  const std::vector<DenseId>& parents,
                  const std::vector<NodeId>& sources) {
  ASSERT_EQ(parents.size(), graph.num_nodes());
  std::set<DenseId> source_set;
  for (const NodeId s : sources) {
    const DenseId dense = graph.ToDense(s);
    if (dense != CsrSnapshot::kAbsent) source_set.insert(dense);
  }
  for (DenseId v = 0; v < graph.num_nodes(); ++v) {
    const double depth = bfs_result.per_node[v];
    if (depth == kUnreached) {
      EXPECT_EQ(parents[v], analytics::bfs::kNoParent) << v;
      continue;
    }
    if (depth == 0.0) {
      EXPECT_EQ(parents[v], v) << v;
      EXPECT_EQ(source_set.count(v), 1u) << v;
      continue;
    }
    const DenseId p = parents[v];
    ASSERT_NE(p, analytics::bfs::kNoParent) << v;
    ASSERT_LT(p, graph.num_nodes()) << v;
    EXPECT_TRUE(graph.HasEdge(p, v))
        << "parent edge " << p << "->" << v << " missing";
    EXPECT_EQ(bfs_result.per_node[p], depth - 1.0)
        << "parent depth of " << v;
  }
}

// ---- Kernel differential suite --------------------------------------------

class ParallelKernelsTest : public ::testing::TestWithParam<std::string> {
 protected:
  void Load(const GraphCase& c) {
    store_ = maker_.Make(GetParam());
    store_->InsertEdges(c.stream);
    CsrSnapshot::Options opts;
    opts.with_weights = true;
    snapshot_ = CsrSnapshot::FromStore(*store_, opts);
  }

  test_stores::StoreMaker maker_;  // outlives store_
  std::unique_ptr<GraphStore> store_;
  CsrSnapshot snapshot_;
};

TEST_P(ParallelKernelsTest, BfsDepthsMatchSequentialAtEveryBudget) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const Span<const NodeId> sources(c.sources);
    std::vector<DenseId> seq_parents;
    const KernelResult seq =
        analytics::bfs::Run(snapshot_, sources, {}, &seq_parents);
    CheckBfsTree(snapshot_, seq, seq_parents, c.sources);
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::vector<DenseId> parents;
      const KernelResult par = analytics::bfs::Run(
          snapshot_, sources, OptsFor(threads), &parents);
      ExpectExact(par, seq, c.name);
      CheckBfsTree(snapshot_, par, parents, c.sources);
    }
  }
}

// Each vertex's in-neighbors, as a sorted multiset.
std::vector<std::vector<DenseId>> SortedInNeighbors(
    const CsrSnapshot::Transpose& in) {
  std::vector<std::vector<DenseId>> out(in.num_nodes());
  for (DenseId v = 0; v < in.num_nodes(); ++v) {
    const Span<const DenseId> seg = in.InNeighbors(v);
    out[v].assign(seg.begin(), seg.end());
    std::sort(out[v].begin(), out[v].end());
  }
  return out;
}

// The naive transpose: walk every out-edge, file it under its target.
std::vector<std::vector<DenseId>> NaiveInNeighbors(const CsrSnapshot& graph) {
  std::vector<std::vector<DenseId>> out(graph.num_nodes());
  for (DenseId u = 0; u < graph.num_nodes(); ++u) {
    for (const DenseId v : graph.Neighbors(u)) out[v].push_back(u);
  }
  return out;  // ascending already: u is visited in order
}

TEST_P(ParallelKernelsTest, InEdgesMatchNaiveTranspose) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const auto want = NaiveInNeighbors(snapshot_);
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      // A fresh snapshot per budget: the transpose is built only once.
      const CsrSnapshot fresh = CsrSnapshot::FromStore(*store_);
      const CsrSnapshot::Transpose& in = fresh.InEdges(threads, 4);
      EXPECT_EQ(in.num_nodes(), fresh.num_nodes());
      EXPECT_EQ(in.num_edges(), fresh.num_edges());
      EXPECT_EQ(SortedInNeighbors(in), want);
    }
  }
}

// Several threads run parallel BFS at once on one fresh snapshot, racing
// the transpose's first build: every depth vector must equal the one-lane
// run, and the one transpose they built must be the one later calls get.
// At average degree 8 the frontier's scout count crosses num_edges / 15
// by the third level, so every parallel run takes a bottom-up step.
TEST(ParallelKernelsTest, ConcurrentBfsCallsShareOneTranspose) {
  constexpr uint64_t kNodes = 3000;
  SplitMix64 rng(0xB0770Du);
  std::vector<Edge> edges;
  for (uint64_t i = 0; i < kNodes * 8; ++i) {
    edges.push_back(Edge{rng.NextBelow(kNodes), rng.NextBelow(kNodes)});
  }
  const CsrSnapshot snapshot = CsrSnapshot::FromEdges(Span<const Edge>(edges));
  const std::vector<NodeId> roots{edges[0].u, edges[1].u, edges[2].u,
                                  edges[3].u};
  std::vector<KernelResult> want;
  for (const NodeId root : roots) {
    want.push_back(
        analytics::bfs::Run(snapshot, Span<const NodeId>(&root, 1)));
  }

  constexpr size_t kCallers = 4;
  std::vector<std::vector<KernelResult>> got(kCallers);
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (size_t r = 0; r < roots.size(); ++r) {
        const NodeId root = roots[(r + t) % roots.size()];
        got[t].push_back(analytics::bfs::Run(
            snapshot, Span<const NodeId>(&root, 1), OptsFor(2 + t % 3)));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (size_t t = 0; t < kCallers; ++t) {
    SCOPED_TRACE("caller=" + std::to_string(t));
    ASSERT_EQ(got[t].size(), roots.size());
    for (size_t r = 0; r < roots.size(); ++r) {
      ExpectExact(got[t][r], want[(r + t) % roots.size()], "bfs");
    }
  }
  const CsrSnapshot::Transpose& in = snapshot.InEdges();
  ASSERT_EQ(in.num_edges(), snapshot.num_edges());
  EXPECT_EQ(SortedInNeighbors(in), NaiveInNeighbors(snapshot));
  // Later calls, at any budget, return the same arrays.
  const DenseId* sources = in.InNeighbors(0).data();
  const NodeId root = roots[0];
  analytics::bfs::Run(snapshot, Span<const NodeId>(&root, 1), OptsFor(4));
  EXPECT_EQ(snapshot.InEdges(4, 4).InNeighbors(0).data(), sources);
}

TEST_P(ParallelKernelsTest, SsspDistancesMatchDijkstraAtEveryBudget) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const Span<const NodeId> sources(c.sources);
    const KernelResult seq = analytics::sssp::Run(snapshot_, sources);
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      KernelOptions opts = OptsFor(threads);
      ExpectExact(analytics::sssp::Run(snapshot_, sources, opts), seq,
                  c.name);
      // Above one lane, any bucket width settles the same unique fixed
      // point (one lane is Dijkstra, which has no width).
      if (threads < 2) continue;
      for (const uint64_t delta : {1, 4, 16}) {
        opts.delta = delta;
        ExpectExact(analytics::sssp::Run(snapshot_, sources, opts), seq,
                    c.name + " delta=" + std::to_string(delta));
      }
    }
  }
}

TEST_P(ParallelKernelsTest, PageRankScoresStayWithinTolerance) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult seq =
        analytics::pagerank::RunIterations(snapshot_, 20);
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const KernelResult par = analytics::pagerank::RunIterations(
          snapshot_, 20, 0.85, OptsFor(threads));
      EXPECT_EQ(par.aggregate, seq.aggregate);
      ASSERT_EQ(par.per_node.size(), seq.per_node.size());
      for (size_t v = 0; v < seq.per_node.size(); ++v) {
        EXPECT_NEAR(par.per_node[v], seq.per_node[v], 1e-9) << v;
      }
    }
  }
}

TEST_P(ParallelKernelsTest, LccAndTriangleCountsAreBitIdentical) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const Span<const NodeId> sources(c.sources);
    const Span<const NodeId> sweep;
    const KernelResult lcc_seq = analytics::lcc::Run(snapshot_, sweep);
    const KernelResult lcc_src = analytics::lcc::Run(snapshot_, sources);
    const KernelResult tc_seq =
        analytics::triangle_count::Run(snapshot_, sweep);
    const KernelResult tc_src =
        analytics::triangle_count::Run(snapshot_, sources);
    for (const size_t threads : ThreadBudgets()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const KernelOptions opts = OptsFor(threads);
      ExpectExact(analytics::lcc::Run(snapshot_, sweep, opts), lcc_seq,
                  "lcc sweep");
      ExpectExact(analytics::lcc::Run(snapshot_, sources, opts), lcc_src,
                  "lcc sources");
      ExpectExact(analytics::triangle_count::Run(snapshot_, sweep, opts),
                  tc_seq, "tc sweep");
      ExpectExact(analytics::triangle_count::Run(snapshot_, sources, opts),
                  tc_src, "tc sources");
    }
  }
}

TEST_P(ParallelKernelsTest, SequentialOnlyKernelsIgnoreTheThreadBudget) {
  // CC (Tarjan) and BC (Brandes) contractually run sequentially at any
  // budget — their label/score definitions are visit-order-dependent — so
  // the options must not change a single bit.
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const Span<const NodeId> sweep;
    const KernelResult cc_seq =
        analytics::connected_components::Run(snapshot_, sweep);
    const KernelResult bc_seq =
        analytics::betweenness::Run(snapshot_, sweep);
    for (const size_t threads : ThreadBudgets()) {
      const KernelOptions opts = OptsFor(threads);
      ExpectExact(analytics::connected_components::Run(snapshot_, sweep,
                                                       opts),
                  cc_seq, "cc");
      ExpectExact(analytics::betweenness::Run(snapshot_, sweep, opts),
                  bc_seq, "bc");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ParallelKernelsTest,
                         ::testing::ValuesIn(test_stores::AllStoreNames()),
                         test_stores::ParamName);

// ---- Snapshot-build equivalence -------------------------------------------

void ExpectSnapshotsIdentical(const CsrSnapshot& got,
                              const CsrSnapshot& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_EQ(got.has_weights(), want.has_weights());
  for (DenseId u = 0; u < want.num_nodes(); ++u) {
    EXPECT_EQ(got.ToOriginal(u), want.ToOriginal(u)) << u;
    ASSERT_EQ(got.Degree(u), want.Degree(u)) << u;
    const Span<const DenseId> gn = got.Neighbors(u);
    const Span<const DenseId> wn = want.Neighbors(u);
    for (size_t i = 0; i < wn.size(); ++i) {
      EXPECT_EQ(gn[i], wn[i]) << u << " slot " << i;
    }
    if (want.has_weights()) {
      const Span<const uint64_t> gw = got.Weights(u);
      const Span<const uint64_t> ww = want.Weights(u);
      for (size_t i = 0; i < ww.size(); ++i) {
        EXPECT_EQ(gw[i], ww[i]) << u << " weight slot " << i;
      }
    }
  }
}

class ParallelKernelSnapshotTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  test_stores::StoreMaker maker_;
};

TEST_P(ParallelKernelSnapshotTest, ParallelFromStoreIsByteIdentical) {
  for (const GraphCase& c : DifferentialCases()) {
    SCOPED_TRACE(c.name);
    const auto store = maker_.Make(GetParam());
    store->InsertEdges(c.stream);

    CsrSnapshot::Options seq_opts;
    seq_opts.with_weights = true;
    const CsrSnapshot seq = CsrSnapshot::FromStore(*store, seq_opts);

    // The induced overload gets the first half of the universe.
    std::vector<NodeId> subset(
        seq.originals().begin(),
        seq.originals().begin() + seq.num_nodes() / 2);
    const CsrSnapshot seq_induced =
        CsrSnapshot::FromStore(*store, Span<const NodeId>(subset), seq_opts);

    for (const size_t threads : {2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      CsrSnapshot::Options par_opts = seq_opts;
      par_opts.num_threads = threads;
      par_opts.grain = 4;
      ExpectSnapshotsIdentical(CsrSnapshot::FromStore(*store, par_opts),
                               seq);
      ExpectSnapshotsIdentical(
          CsrSnapshot::FromStore(*store, Span<const NodeId>(subset),
                                 par_opts),
          seq_induced);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ParallelKernelSnapshotTest,
                         ::testing::ValuesIn(test_stores::AllStoreNames()),
                         test_stores::ParamName);

TEST(ParallelKernelSnapshotTest, FromEdgesParallelMatchesSequential) {
  // Duplicates with explicit weights: accumulation must agree bit-for-bit
  // whichever lane order the parallel builder sums them in.
  std::vector<Edge> edges;
  std::vector<uint64_t> weights;
  SplitMix64 rng(0xF00Du);
  for (int i = 0; i < 600; ++i) {
    edges.push_back(Edge{rng.NextBelow(40), rng.NextBelow(40)});
    weights.push_back(1 + rng.NextBelow64(9));
  }
  const CsrSnapshot seq =
      CsrSnapshot::FromEdges(Span<const Edge>(edges),
                             Span<const uint64_t>(weights));
  for (const size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CsrSnapshot::Options opts;
    opts.num_threads = threads;
    opts.grain = 8;
    ExpectSnapshotsIdentical(
        CsrSnapshot::FromEdges(Span<const Edge>(edges),
                               Span<const uint64_t>(weights), opts),
        seq);
  }
}

// A thread-safe stand-in for an un-quiesced writer: the backing store
// never changes (so the parallel extraction races nothing), but
// NumEdges() reports one extra edge on every call after the first — the
// drift the builder's recheck exists to catch.
class EdgeCountDriftStub final : public GraphStore {
 public:
  std::string_view name() const override { return "edge-count-drift"; }
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
    return backing_.Neighbors(u);
  }
  std::unique_ptr<NeighborCursor> Nodes() const override {
    return backing_.Nodes();
  }
  size_t NumEdges() const override {
    return backing_.NumEdges() +
           (calls_.fetch_add(1, std::memory_order_relaxed) > 0 ? 1 : 0);
  }
  size_t NumNodes() const override { return backing_.NumNodes(); }
  size_t MemoryBytes() const override { return backing_.MemoryBytes(); }

 private:
  baselines::HashMapStore backing_;
  mutable std::atomic<int> calls_{0};
};

TEST(ParallelKernelSnapshotTest, EmptyAndMovedFromSnapshotsHaveNoInEdges) {
  const auto expect_empty = [](const CsrSnapshot& snapshot) {
    const CsrSnapshot::Transpose& in = snapshot.InEdges(4, 1);
    EXPECT_EQ(in.num_nodes(), 0u);
    EXPECT_EQ(in.num_edges(), 0u);
  };
  expect_empty(CsrSnapshot());
  expect_empty(CsrSnapshot::FromEdges({}));

  const std::vector<Edge> edges{{1, 2}, {2, 3}, {3, 1}, {1, 3}};
  CsrSnapshot built = CsrSnapshot::FromEdges(Span<const Edge>(edges));
  CsrSnapshot moved_before_build = std::move(built);
  expect_empty(built);  // NOLINT(bugprone-use-after-move): the contract
  EXPECT_EQ(moved_before_build.InEdges().num_edges(), edges.size());

  // A built transpose moves with its snapshot, arrays and all.
  const DenseId* sources = moved_before_build.InEdges().InNeighbors(0).data();
  CsrSnapshot moved_after_build;
  moved_after_build = std::move(moved_before_build);
  expect_empty(moved_before_build);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved_after_build.InEdges().InNeighbors(0).data(), sources);
  EXPECT_EQ(SortedInNeighbors(moved_after_build.InEdges()),
            NaiveInNeighbors(moved_after_build));
}

TEST(ParallelKernelSnapshotTest, ParallelBuildStillDetectsMidBuildDrift) {
  for (const size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CsrSnapshot::Options opts;
    opts.num_threads = threads;
    {
      EdgeCountDriftStub store;
      store.InsertEdge(1, 2);
      store.InsertEdge(2, 3);
      EXPECT_THROW(CsrSnapshot::FromStore(store, opts), std::logic_error);
    }
    {
      EdgeCountDriftStub store;
      store.InsertEdge(1, 2);
      store.InsertEdge(2, 3);
      const std::vector<NodeId> nodes{1, 2, 3};
      EXPECT_THROW(
          CsrSnapshot::FromStore(store, Span<const NodeId>(nodes), opts),
          std::logic_error);
    }
  }
}

}  // namespace
}  // namespace cuckoograph

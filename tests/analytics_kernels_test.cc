// Kernel correctness: each of the seven analytics kernels checked against
// a naive reference implementation on small deterministic graphs (path,
// star, clique, two components, diamond), parameterized over every store
// of tests/test_stores.h (registry schemes and the durable decorator) —
// every store feeds the kernels through the same CsrSnapshot layer, so
// agreement here certifies store, snapshot, and kernel together.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "analytics/betweenness.h"
#include "analytics/bfs.h"
#include "analytics/common.h"
#include "analytics/connected_components.h"
#include "analytics/csr_snapshot.h"
#include "analytics/lcc.h"
#include "analytics/pagerank.h"
#include "analytics/sssp.h"
#include "analytics/triangle_count.h"
#include "baselines/store_factory.h"
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

// ---- Naive reference model ------------------------------------------------

struct RefGraph {
  std::vector<NodeId> nodes;                 // sorted unique endpoints
  std::map<NodeId, std::vector<NodeId>> adj; // distinct successors, sorted
  std::set<uint64_t> edges;                  // EdgeKey set
  std::map<uint64_t, uint64_t> weight;       // EdgeKey -> expected weight
};

RefGraph BuildRef(const std::vector<Edge>& stream, bool weighted) {
  RefGraph ref;
  for (const Edge& e : stream) {
    ref.nodes.push_back(e.u);
    ref.nodes.push_back(e.v);
    if (ref.edges.insert(EdgeKey(e)).second) {
      ref.adj[e.u].push_back(e.v);
      ref.weight[EdgeKey(e)] = 1;
    } else if (weighted) {
      ++ref.weight[EdgeKey(e)];  // duplicate arrival accumulates
    }
  }
  std::sort(ref.nodes.begin(), ref.nodes.end());
  ref.nodes.erase(std::unique(ref.nodes.begin(), ref.nodes.end()),
                  ref.nodes.end());
  for (auto& [u, vs] : ref.adj) std::sort(vs.begin(), vs.end());
  return ref;
}

std::vector<NodeId> SuccessorsOf(const RefGraph& ref, NodeId u) {
  const auto it = ref.adj.find(u);
  return it == ref.adj.end() ? std::vector<NodeId>() : it->second;
}

std::map<NodeId, double> NaiveBfs(const RefGraph& ref,
                                  const std::vector<NodeId>& sources) {
  std::map<NodeId, double> dist;
  for (const NodeId n : ref.nodes) dist[n] = kUnreached;
  std::queue<NodeId> queue;
  for (const NodeId s : sources) {
    if (dist.count(s) == 0 || dist[s] == 0.0) continue;
    dist[s] = 0.0;
    queue.push(s);
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop();
    for (const NodeId v : SuccessorsOf(ref, u)) {
      if (dist[v] != kUnreached) continue;
      dist[v] = dist[u] + 1.0;
      queue.push(v);
    }
  }
  return dist;
}

std::map<NodeId, double> NaiveSssp(const RefGraph& ref,
                                   const std::vector<NodeId>& sources) {
  std::map<NodeId, double> dist;
  for (const NodeId n : ref.nodes) dist[n] = kUnreached;
  for (const NodeId s : sources) {
    if (dist.count(s) != 0) dist[s] = 0.0;
  }
  // O(V^2) Dijkstra: repeatedly settle the nearest unsettled vertex.
  std::set<NodeId> settled;
  while (true) {
    NodeId best = 0;
    double best_dist = kUnreached;
    for (const auto& [n, d] : dist) {
      if (settled.count(n) == 0 && d < best_dist) {
        best = n;
        best_dist = d;
      }
    }
    if (best_dist == kUnreached) break;
    settled.insert(best);
    for (const NodeId v : SuccessorsOf(ref, best)) {
      const double w =
          static_cast<double>(ref.weight.at(EdgeKey(Edge{best, v})));
      dist[v] = std::min(dist[v], best_dist + w);
    }
  }
  return dist;
}

uint64_t NaiveTriangles(const RefGraph& ref, NodeId s) {
  uint64_t count = 0;
  for (const NodeId v : SuccessorsOf(ref, s)) {
    if (v == s) continue;
    for (const NodeId w : SuccessorsOf(ref, v)) {
      if (w == s || w == v) continue;
      if (ref.edges.count(EdgeKey(Edge{w, s})) != 0) ++count;
    }
  }
  return count;
}

// Mutual-reachability partition via per-node DFS closures.
std::map<NodeId, std::set<NodeId>> NaiveReachability(const RefGraph& ref) {
  std::map<NodeId, std::set<NodeId>> reach;
  for (const NodeId s : ref.nodes) {
    std::set<NodeId>& seen = reach[s];
    std::vector<NodeId> stack{s};
    seen.insert(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId v : SuccessorsOf(ref, u)) {
        if (seen.insert(v).second) stack.push_back(v);
      }
    }
  }
  return reach;
}

std::map<NodeId, double> NaivePageRank(const RefGraph& ref, size_t iters,
                                       double d) {
  const size_t n = ref.nodes.size();
  std::map<NodeId, double> rank;
  for (const NodeId v : ref.nodes) rank[v] = 1.0 / static_cast<double>(n);
  for (size_t it = 0; it < iters; ++it) {
    double dangling = 0.0;
    for (const NodeId u : ref.nodes) {
      if (SuccessorsOf(ref, u).empty()) dangling += rank[u];
    }
    std::map<NodeId, double> next;
    const double base = (1.0 - d + d * dangling) / static_cast<double>(n);
    for (const NodeId v : ref.nodes) next[v] = base;
    for (const NodeId u : ref.nodes) {
      const std::vector<NodeId> succ = SuccessorsOf(ref, u);
      if (succ.empty()) continue;
      const double share = d * rank[u] / static_cast<double>(succ.size());
      for (const NodeId v : succ) next[v] += share;
    }
    rank = next;
  }
  return rank;
}

// All-pairs hop distances and shortest-path counts, by BFS from each node.
void NaivePaths(const RefGraph& ref,
                std::map<NodeId, std::map<NodeId, double>>& dist,
                std::map<NodeId, std::map<NodeId, double>>& sigma) {
  for (const NodeId s : ref.nodes) {
    std::map<NodeId, double>& d = dist[s];
    std::map<NodeId, double>& sg = sigma[s];
    for (const NodeId n : ref.nodes) {
      d[n] = kUnreached;
      sg[n] = 0.0;
    }
    d[s] = 0.0;
    sg[s] = 1.0;
    std::queue<NodeId> queue;
    queue.push(s);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop();
      for (const NodeId v : SuccessorsOf(ref, u)) {
        if (d[v] == kUnreached) {
          d[v] = d[u] + 1.0;
          queue.push(v);
        }
        if (d[v] == d[u] + 1.0) sg[v] += sg[u];
      }
    }
  }
}

// Betweenness by the pair-dependency definition, no Brandes accumulation:
// bc[v] = sum over s != v != t of sigma_st(v) / sigma_st.
std::map<NodeId, double> NaiveBetweenness(const RefGraph& ref) {
  std::map<NodeId, std::map<NodeId, double>> dist, sigma;
  NaivePaths(ref, dist, sigma);
  std::map<NodeId, double> bc;
  for (const NodeId v : ref.nodes) bc[v] = 0.0;
  for (const NodeId s : ref.nodes) {
    for (const NodeId t : ref.nodes) {
      if (t == s || sigma[s][t] == 0.0) continue;
      for (const NodeId v : ref.nodes) {
        if (v == s || v == t) continue;
        if (dist[s][v] + dist[v][t] == dist[s][t]) {
          bc[v] += sigma[s][v] * sigma[v][t] / sigma[s][t];
        }
      }
    }
  }
  return bc;
}

double NaiveLcc(const RefGraph& ref, NodeId u) {
  const std::vector<NodeId> succ = SuccessorsOf(ref, u);
  if (succ.size() < 2) return 0.0;
  uint64_t links = 0;
  for (const NodeId v : succ) {
    for (const NodeId w : succ) {
      if (v != w && ref.edges.count(EdgeKey(Edge{v, w})) != 0) ++links;
    }
  }
  return static_cast<double>(links) /
         (static_cast<double>(succ.size()) *
          static_cast<double>(succ.size() - 1));
}

// ---- Fixtures -------------------------------------------------------------

struct TestCase {
  std::string name;
  std::vector<Edge> stream;  // may contain duplicate arrivals
  std::vector<NodeId> sources;
};

// Non-contiguous ids throughout, so the dense remap is exercised. The
// first stream edge repeats once: weighted schemes must see weight 2 on
// it, everyone else weight 1.
std::vector<TestCase> AllCases() {
  std::vector<TestCase> cases;
  // Path 5 -> 15 -> 25 -> 35 -> 45.
  cases.push_back(
      {"path", {{5, 15}, {15, 25}, {25, 35}, {35, 45}}, {5, 25}});
  // Star: hub 70 <-> leaves.
  cases.push_back({"star",
                   {{70, 11}, {70, 22}, {70, 33}, {11, 70}, {22, 70},
                    {33, 70}},
                   {70, 11}});
  // Clique K4 on {10, 20, 30, 40}, both directions.
  {
    TestCase clique{"clique", {}, {10, 30}};
    const std::vector<NodeId> members{10, 20, 30, 40};
    for (const NodeId u : members) {
      for (const NodeId v : members) {
        if (u != v) clique.stream.push_back(Edge{u, v});
      }
    }
    cases.push_back(clique);
  }
  // Two components: a 3-cycle and a disjoint 2-cycle.
  cases.push_back(
      {"two_components", {{100, 110}, {110, 120}, {120, 100}, {7, 9}, {9, 7}},
       {100, 7}});
  // Diamond with two equal shortest paths (exercises sigma counting).
  cases.push_back(
      {"diamond", {{1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}}, {1}});
  for (auto& c : cases) c.stream.push_back(c.stream.front());  // duplicate
  return cases;
}

class AnalyticsKernelsTest : public ::testing::TestWithParam<std::string> {
 protected:
  // Loads the case's stream into this scheme's store, snapshots it with
  // weights, and builds the matching reference model.
  void Load(const TestCase& c) {
    store_ = maker_.Make(GetParam());
    store_->InsertEdges(c.stream);
    CsrSnapshot::Options opts;
    opts.with_weights = true;
    snapshot_ = CsrSnapshot::FromStore(*store_, opts);
    ref_ = BuildRef(c.stream, store_->Capabilities().weighted);
    ASSERT_EQ(snapshot_.num_nodes(), ref_.nodes.size());
    ASSERT_EQ(snapshot_.num_edges(), ref_.edges.size());
  }

  double ValueAt(const KernelResult& result, NodeId id) const {
    const DenseId dense = snapshot_.ToDense(id);
    EXPECT_NE(dense, CsrSnapshot::kAbsent) << id;
    return result.per_node[dense];
  }

  test_stores::StoreMaker maker_;  // outlives store_
  std::unique_ptr<GraphStore> store_;
  CsrSnapshot snapshot_;
  RefGraph ref_;
};

TEST_P(AnalyticsKernelsTest, BfsMatchesNaiveReference) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    // Duplicate and absent source ids must be ignored.
    std::vector<NodeId> sources = c.sources;
    sources.push_back(c.sources.front());
    sources.push_back(424242);
    const KernelResult result =
        analytics::bfs::Run(snapshot_, Span<const NodeId>(sources));
    const auto expected = NaiveBfs(ref_, c.sources);
    uint64_t reached = 0;
    for (const NodeId n : ref_.nodes) {
      EXPECT_EQ(ValueAt(result, n), expected.at(n)) << n;
      if (expected.at(n) != kUnreached) ++reached;
    }
    EXPECT_EQ(result.aggregate, reached);
  }
}

TEST_P(AnalyticsKernelsTest, SsspMatchesNaiveDijkstra) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::sssp::Run(snapshot_, Span<const NodeId>(c.sources));
    const auto expected = NaiveSssp(ref_, c.sources);
    for (const NodeId n : ref_.nodes) {
      EXPECT_EQ(ValueAt(result, n), expected.at(n)) << n;
    }
    // Delta-stepping (any budget >= 2) settles the same distances, at
    // any bucket width.
    for (const uint64_t delta : {1, 2, 16}) {
      KernelOptions opts;
      opts.num_threads = 2;
      opts.delta = delta;
      const KernelResult stepped =
          analytics::sssp::Run(snapshot_, Span<const NodeId>(c.sources), opts);
      EXPECT_EQ(stepped.per_node, result.per_node) << "delta=" << delta;
      EXPECT_EQ(stepped.aggregate, result.aggregate);
    }
  }
}

TEST_P(AnalyticsKernelsTest, TriangleCountMatchesNaiveReference) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    // Per-source counts against the reference...
    const KernelResult result = analytics::triangle_count::Run(
        snapshot_, Span<const NodeId>(c.sources));
    uint64_t sum = 0;
    for (const NodeId s : c.sources) {
      const uint64_t expected = NaiveTriangles(ref_, s);
      EXPECT_EQ(ValueAt(result, s), static_cast<double>(expected)) << s;
      sum += expected;
    }
    EXPECT_EQ(result.aggregate, sum);
    // ... and the whole-snapshot sweep equals summing every vertex.
    const KernelResult swept =
        analytics::triangle_count::Run(snapshot_, Span<const NodeId>());
    uint64_t total = 0;
    for (const NodeId n : ref_.nodes) total += NaiveTriangles(ref_, n);
    EXPECT_EQ(swept.aggregate, total);
  }
}

TEST_P(AnalyticsKernelsTest, SccPartitionMatchesMutualReachability) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::connected_components::Run(snapshot_, Span<const NodeId>());
    const auto reach = NaiveReachability(ref_);
    std::set<double> component_ids;
    for (const NodeId a : ref_.nodes) {
      component_ids.insert(ValueAt(result, a));
      for (const NodeId b : ref_.nodes) {
        const bool mutual =
            reach.at(a).count(b) != 0 && reach.at(b).count(a) != 0;
        EXPECT_EQ(ValueAt(result, a) == ValueAt(result, b), mutual)
            << a << " vs " << b;
      }
    }
    EXPECT_EQ(result.aggregate, component_ids.size());
  }
}

TEST_P(AnalyticsKernelsTest, PageRankMatchesNaivePowerIteration) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::pagerank::RunIterations(snapshot_, 10);
    EXPECT_EQ(result.aggregate, 10u);
    const auto expected = NaivePageRank(ref_, 10, 0.85);
    double sum = 0.0;
    for (const NodeId n : ref_.nodes) {
      EXPECT_NEAR(ValueAt(result, n), expected.at(n), 1e-12) << n;
      sum += ValueAt(result, n);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_P(AnalyticsKernelsTest, BetweennessMatchesPairDependencies) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    // Empty sources = every pivot = the exact scores.
    const KernelResult result =
        analytics::betweenness::Run(snapshot_, Span<const NodeId>());
    EXPECT_EQ(result.aggregate, ref_.nodes.size());
    const auto expected = NaiveBetweenness(ref_);
    for (const NodeId n : ref_.nodes) {
      EXPECT_NEAR(ValueAt(result, n), expected.at(n), 1e-9) << n;
    }
  }
}

TEST_P(AnalyticsKernelsTest, LccMatchesNaiveReference) {
  for (const TestCase& c : AllCases()) {
    SCOPED_TRACE(c.name);
    Load(c);
    const KernelResult result =
        analytics::lcc::Run(snapshot_, Span<const NodeId>());
    EXPECT_EQ(result.aggregate, ref_.nodes.size());
    for (const NodeId n : ref_.nodes) {
      EXPECT_NEAR(ValueAt(result, n), NaiveLcc(ref_, n), 1e-12) << n;
    }
  }
}

TEST_P(AnalyticsKernelsTest, EmptySnapshotRunsEveryKernel) {
  store_ = maker_.Make(GetParam());
  snapshot_ = CsrSnapshot::FromStore(*store_);
  const Span<const NodeId> none;
  EXPECT_EQ(analytics::bfs::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::sssp::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::triangle_count::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::connected_components::Run(snapshot_, none).aggregate,
            0u);
  EXPECT_TRUE(analytics::pagerank::Run(snapshot_, none).per_node.empty());
  EXPECT_EQ(analytics::betweenness::Run(snapshot_, none).aggregate, 0u);
  EXPECT_EQ(analytics::lcc::Run(snapshot_, none).aggregate, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AnalyticsKernelsTest,
                         ::testing::ValuesIn(test_stores::AllStoreNames()),
                         test_stores::ParamName);

}  // namespace
}  // namespace cuckoograph

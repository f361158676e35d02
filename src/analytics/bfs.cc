#include "analytics/bfs.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "analytics/frontier.h"

namespace cuckoograph::analytics::bfs {

namespace {

// Direction-switch thresholds from the GAP benchmark suite: top-down hands
// off to bottom-up when the frontier's scout count (sum of out-degrees)
// exceeds the unexplored edge budget / kAlpha; bottom-up hands back when
// the awake count drops under num_nodes / kBeta.
constexpr uint64_t kAlpha = 15;
constexpr uint64_t kBeta = 18;

// The exact pre-parallel reference: sequential two-slot frontier loop.
KernelResult RunSequential(const CsrSnapshot& graph,
                           Span<const NodeId> sources,
                           std::vector<DenseId>* parents) {
  KernelResult result;
  result.per_node.assign(graph.num_nodes(), kUnreached);
  if (parents != nullptr) parents->assign(graph.num_nodes(), kNoParent);

  VisitedBitmap visited(graph.num_nodes());
  Frontier frontier(graph.num_nodes());
  for (const DenseId s : ResolveSources(graph, sources)) {
    visited.Set(s);
    result.per_node[s] = 0.0;
    if (parents != nullptr) (*parents)[s] = s;
    frontier.PushCurrent(s);
    ++result.aggregate;
  }

  double depth = 0.0;
  while (!frontier.CurrentEmpty()) {
    depth += 1.0;
    for (const DenseId u : frontier.Current()) {
      for (const DenseId v : graph.Neighbors(u)) {
        if (!visited.TestAndSet(v)) continue;
        result.per_node[v] = depth;
        if (parents != nullptr) (*parents)[v] = u;
        frontier.PushNext(v);
        ++result.aggregate;
      }
    }
    frontier.Advance();
  }
  return result;
}

// One frontier-parallel top-down step: claims unvisited successors of the
// sparse frontier, appends them to `next`, and returns (discovered,
// scout), scout being the out-degree sum of the discoveries.
std::pair<uint64_t, uint64_t> TopDownStep(
    const CsrSnapshot& graph, const KernelOptions& opts,
    const std::vector<DenseId>& frontier, double depth,
    AtomicVisitedBitmap& visited, std::vector<double>& dist,
    std::vector<DenseId>& parent, std::vector<DenseId>& next) {
  std::atomic<uint64_t> discovered{0};
  std::atomic<uint64_t> scout{0};
  std::mutex next_mu;
  KernelParallelFor(opts, 0, frontier.size(), [&](size_t begin, size_t end) {
    std::vector<DenseId> local;
    uint64_t local_scout = 0;
    for (size_t i = begin; i < end; ++i) {
      const DenseId u = frontier[i];
      for (const DenseId v : graph.Neighbors(u)) {
        if (!visited.TestAndSet(v)) continue;
        dist[v] = depth;
        parent[v] = u;
        local_scout += graph.Degree(v);
        local.push_back(v);
      }
    }
    if (!local.empty()) {
      discovered.fetch_add(local.size(), std::memory_order_relaxed);
      scout.fetch_add(local_scout, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(next_mu);
      next.insert(next.end(), local.begin(), local.end());
    }
  });
  return {discovered.load(), scout.load()};
}

// One vertex-parallel bottom-up step: every unvisited vertex scans its
// in-neighbors for a frontier member and claims itself on the first hit.
// Returns the awake count (vertices discovered this step). Which
// in-neighbor is hit first follows the transpose's unspecified segment
// order, so it moves the parent, never the depth.
uint64_t BottomUpStep(const CsrSnapshot& graph, const KernelOptions& opts,
                      const CsrSnapshot::Transpose& in,
                      const AtomicVisitedBitmap& front, double depth,
                      AtomicVisitedBitmap& visited, std::vector<double>& dist,
                      std::vector<DenseId>& parent,
                      AtomicVisitedBitmap& next) {
  std::atomic<uint64_t> awake{0};
  KernelParallelFor(opts, 0, graph.num_nodes(),
                    [&](size_t begin, size_t end) {
                      uint64_t local_awake = 0;
                      for (size_t v = begin; v < end; ++v) {
                        const DenseId dv = static_cast<DenseId>(v);
                        if (visited.Test(dv)) continue;
                        for (const DenseId u : in.InNeighbors(dv)) {
                          if (!front.Test(u)) continue;
                          visited.Set(dv);
                          dist[v] = depth;
                          parent[v] = u;
                          next.Set(dv);
                          ++local_awake;
                          break;
                        }
                      }
                      awake.fetch_add(local_awake,
                                      std::memory_order_relaxed);
                    });
  return awake.load();
}

KernelResult RunDirectionOptimizing(const CsrSnapshot& graph,
                                    Span<const NodeId> sources,
                                    const KernelOptions& opts,
                                    std::vector<DenseId>* parents_out) {
  const size_t n = graph.num_nodes();
  KernelResult result;
  result.per_node.assign(n, kUnreached);
  std::vector<DenseId> parent(n, kNoParent);

  AtomicVisitedBitmap visited(n);
  std::vector<DenseId> frontier;
  uint64_t scout_count = 0;
  for (const DenseId s : ResolveSources(graph, sources)) {
    visited.Set(s);
    result.per_node[s] = 0.0;
    parent[s] = s;
    frontier.push_back(s);
    scout_count += graph.Degree(s);
    ++result.aggregate;
  }

  uint64_t edges_to_check = graph.num_edges();
  double depth = 0.0;
  std::vector<DenseId> next;
  while (!frontier.empty()) {
    if (scout_count > edges_to_check / kAlpha) {
      // The snapshot's shared transpose: the first bottom-up step of any
      // BFS on this snapshot builds it, every later one reuses it.
      const CsrSnapshot::Transpose& in =
          graph.InEdges(opts.num_threads, opts.grain);
      AtomicVisitedBitmap front(n);
      for (const DenseId u : frontier) front.Set(u);
      uint64_t awake = frontier.size();
      uint64_t old_awake;
      do {
        old_awake = awake;
        AtomicVisitedBitmap next_front(n);
        depth += 1.0;
        awake = BottomUpStep(graph, opts, in, front, depth, visited,
                             result.per_node, parent, next_front);
        result.aggregate += awake;
        front = std::move(next_front);
      } while (awake > 0 &&
               (awake >= old_awake || awake > n / kBeta));
      frontier.clear();
      for (DenseId v = 0; v < n; ++v) {
        if (front.Test(v)) frontier.push_back(v);
      }
      scout_count = 1;  // force a fresh top-down estimate next pass
    } else {
      edges_to_check -= scout_count;
      next.clear();
      depth += 1.0;
      const auto [discovered, scout] =
          TopDownStep(graph, opts, frontier, depth, visited,
                      result.per_node, parent, next);
      result.aggregate += discovered;
      scout_count = scout;
      frontier.swap(next);
    }
  }
  if (parents_out != nullptr) *parents_out = std::move(parent);
  return result;
}

}  // namespace

KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts, std::vector<DenseId>* parents) {
  if (opts.num_threads <= 1) return RunSequential(graph, sources, parents);
  return RunDirectionOptimizing(graph, sources, opts, parents);
}

}  // namespace cuckoograph::analytics::bfs

// BFS kernel (Figure 10, Section V-E1).
#ifndef CUCKOOGRAPH_ANALYTICS_BFS_H_
#define CUCKOOGRAPH_ANALYTICS_BFS_H_

#include <vector>

#include "analytics/kernel.h"

namespace cuckoograph::analytics::bfs {

// parents[] value of vertices outside the BFS tree (sources are their own
// parent).
inline constexpr DenseId kNoParent = ~DenseId{0};

// Multi-source BFS. per_node = hop distance from the nearest source
// (kUnreached for vertices no source reaches), aggregate = vertices
// reached. An empty source set reaches nothing.
//
// opts.num_threads == 1 runs the sequential frontier loop — the exact
// reference. A larger budget runs the GAP-style direction-optimizing
// traversal: frontier-parallel top-down steps that hand off to
// vertex-parallel bottom-up steps when the frontier's out-edge scout count
// crosses remaining_edges / alpha, and back when the frontier shrinks
// under num_nodes / beta. Bottom-up scans in-edges through the snapshot's
// one shared transpose (CsrSnapshot::InEdges): the first bottom-up step of
// any BFS on a snapshot builds it, and every later call — concurrent ones
// included — reuses it, so repeated BFS over one snapshot pays the build
// once (the GAP split of graph build from trials). A run that stays
// top-down never builds it. Both paths produce identical depths — level
// sets are deterministic; an AtomicVisitedBitmap fetch_or arbitrates which
// lane claims a vertex, not which level it lands in.
//
// `parents`, when non-null, receives a valid BFS tree: parents[s] == s for
// reached sources, otherwise parents[v] is some predecessor of v with
// depth[v] == depth[parent] + 1, and kNoParent for unreached vertices.
// Which predecessor wins is scheduling-dependent under a parallel budget —
// the differential suite checks tree validity, not a particular tree.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts = {},
                 std::vector<DenseId>* parents = nullptr);

}  // namespace cuckoograph::analytics::bfs

#endif  // CUCKOOGRAPH_ANALYTICS_BFS_H_

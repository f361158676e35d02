// SSSP kernel (Figure 11, Section V-E2), over the snapshot's weights
// array (unit weights when the snapshot carries none — the unweighted
// degenerate case).
#ifndef CUCKOOGRAPH_ANALYTICS_SSSP_H_
#define CUCKOOGRAPH_ANALYTICS_SSSP_H_

#include "analytics/kernel.h"

namespace cuckoograph::analytics::sssp {

// Multi-source shortest paths. per_node = weighted distance from the
// nearest source (kUnreached when unreachable), aggregate = vertices
// reached.
//
// opts.num_threads == 1 runs Dijkstra (binary heap, lazy deletion) — the
// exact reference. A larger budget runs frontier-parallel delta-stepping
// with bucket width opts.delta (0 is treated as 1; the width tunes work
// per phase, not the result): each bucket batch relaxes in parallel,
// racing lanes settle each tentative distance with a CAS-min, and the
// fixed point is the unique shortest-distance vector — so distances match
// Dijkstra exactly, whatever the lane schedule or delta.
KernelResult Run(const CsrSnapshot& graph, Span<const NodeId> sources,
                 const KernelOptions& opts = {});

}  // namespace cuckoograph::analytics::sssp

#endif  // CUCKOOGRAPH_ANALYTICS_SSSP_H_

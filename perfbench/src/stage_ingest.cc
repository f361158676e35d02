// The ingest stage: one thread drives a CuckooGraph with the default
// Config through the paper's basic tasks (insert, query, delete) and the
// analytics path (snapshot, BFS, PageRank) on a seeded power-law stream.
#include <algorithm>
#include <cmath>
#include <string>

#include "analytics/bfs.h"
#include "analytics/csr_snapshot.h"
#include "analytics/pagerank.h"
#include "common/span.h"
#include "core/cuckoo_graph.h"
#include "histogram.h"
#include "stages.h"

namespace perfbench {
namespace {

using cuckoograph::CuckooGraph;
using cuckoograph::Span;
using cuckoograph::analytics::CsrSnapshot;
using cuckoograph::analytics::KernelOptions;
using cuckoograph::analytics::KernelResult;
using cuckoograph::analytics::SnapshotOptions;

constexpr size_t kPageRankIterations = 10;
constexpr uint64_t kStallNs = 100000;   // core.insert_stalls threshold
constexpr size_t kAnalyticsRounds = 3;  // BFS + PageRank rounds per cycle

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Applies `op` to every edge and adds the wall time to `elapsed_ns`; with
// `per_op` each call is also timed into it. Returns how many calls
// returned true. A phase's rate sample is its whole throughput, one per
// cycle: parts of a phase differ in content (a growing or shrinking store,
// present or absent probes), so a median over parts would hinge on the
// pair in the middle, while the whole phase is the same work every cycle.
template <typename Op>
size_t RunTimed(const std::vector<Edge>& edges, Histogram* per_op,
                uint64_t* elapsed_ns, Op op) {
  size_t hits = 0;
  const uint64_t start = NowNs();
  if (per_op == nullptr) {
    for (const Edge& e : edges) hits += op(e) ? 1 : 0;
  } else {
    for (const Edge& e : edges) {
      const uint64_t t0 = NowNs();
      hits += op(e) ? 1 : 0;
      per_op->Record(NowNs() - t0);
    }
  }
  *elapsed_ns += std::max<uint64_t>(1, NowNs() - start);
  return hits;
}

double Mops(size_t ops, uint64_t ns) {
  return static_cast<double>(ops) * 1e3 / static_cast<double>(ns);
}

bool SameDepths(const KernelResult& a, const KernelResult& b) {
  return a.aggregate == b.aggregate && a.per_node == b.per_node;
}

bool SameRanks(const KernelResult& a, const KernelResult& b) {
  if (a.per_node.size() != b.per_node.size()) return false;
  for (size_t i = 0; i < a.per_node.size(); ++i) {
    if (!(std::fabs(a.per_node[i] - b.per_node[i]) <= 1e-9)) return false;
  }
  return true;
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const uint64_t start = NowNs();
  fn();
  return Seconds(NowNs() - start);
}

}  // namespace

struct IngestStage::Samples {
  // Untraced cycles: phase throughputs (Mops) and per-call times.
  Series insert, query, del, snapshot, bfs, pagerank;
  std::vector<double> bytes_per_edge, pass_s;
  // Traced cycles.
  size_t traced_cycles = 0;
  std::vector<double> traced_pass_s;
  Histogram insert_ns, query_ns, delete_ns;
  cuckoograph::GraphStats after_insert, after_delete;
  double bytes_after_delete = 0;
  std::vector<double> scan, csr_build, snapshot_seq, bfs_first, bfs_repeat,
      bfs_seq, bfs_mteps, pagerank_seq, snapshot_mb;
};

// The cycle in progress: its store and snapshot live across units.
struct IngestStage::Cycle {
  enum Phase { kInsert, kQuery, kSnapshot, kAnalytics, kDelete };
  Phase phase = kInsert;
  bool traced = false;
  uint64_t id = 0;
  std::unique_ptr<CuckooGraph> graph;
  CsrSnapshot snap;
  std::vector<KernelResult> bfs_ref;
  KernelResult pagerank_ref;
  size_t rounds = 0;      // analytics rounds done
  double elapsed_s = 0;   // wall time of the cycle's units so far
  double extras_s = 0;    // traced-only work, kept out of trace.overhead
};

IngestStage::IngestStage(const IngestSpec& spec)
    : spec_(spec),
      samples_(std::make_unique<Samples>()),
      cycle_(std::make_unique<Cycle>()) {}
IngestStage::~IngestStage() = default;

void IngestStage::Setup(uint64_t seed) {
  MakeIngestInputs(spec_, seed, &inputs_);
}

bool IngestStage::AtBoundary() const { return cycle_->graph == nullptr; }

size_t IngestStage::CompletedCycles() const {
  return samples_->pass_s.size() + samples_->traced_cycles;
}

// One phase of the current cycle: a fresh store is taken through insert,
// query, snapshot, kAnalyticsRounds analytics rounds and delete, one unit
// each, with every answer checked. Splitting the cycle lets the other
// stages' units fall between its phases. Traced cycles also time each op
// and run the per-layer extras; they feed only per-layer samples, so
// tracing never leaks into end-to-end metrics.
double IngestStage::RunUnit(const RunOptions& opts, bool traced, Failures* f) {
  const IngestInputs& in = inputs_;
  const KernelOptions lanes{opts.lanes, 256, 8};
  const KernelOptions one_lane{1, 256, 8};
  SnapshotOptions snap_lanes;
  snap_lanes.num_threads = opts.lanes;
  Samples& t = *samples_;
  Samples unused;
  Samples& s = traced ? unused : t;
  Tracer* tracer = opts.tracer;
  Cycle& c = *cycle_;
  if (c.graph != nullptr && c.traced != traced) {
    const uint64_t id = c.id;
    c = Cycle();  // a cycle never mixes traced and untraced phases
    c.id = id;
  }
  if (c.graph == nullptr) {
    const uint64_t id = c.id + 1;
    c = Cycle();
    c.id = id;
    c.traced = traced;
    c.graph = std::make_unique<CuckooGraph>();
  }
  CuckooGraph& g = *c.graph;
  const uint64_t cycle_id = c.id;
  const uint64_t unit_start = NowNs();
  const CpuStat stat_start = ReadCpuStat();
  bool completed = false;

  switch (c.phase) {
    case Cycle::kInsert: {
      ScopedSpan span(tracer, "core.InsertEdge*", cycle_id, 0);
      uint64_t ns = 0;
      const size_t inserted =
          RunTimed(in.arrivals, traced ? &t.insert_ns : nullptr, &ns,
                   [&g](const Edge& e) { return g.InsertEdge(e.u, e.v); });
      s.insert.values.push_back(Mops(in.arrivals.size(), ns));
      f->Count(in.arrivals.size(), inserted == in.distinct.size() ? 0 : 1,
               "ingest: insert returned " + std::to_string(inserted) +
                   " new, expected " + std::to_string(in.distinct.size()));
      s.bytes_per_edge.push_back(static_cast<double>(g.MemoryBytes()) /
                                 static_cast<double>(g.NumEdges()));
      if (traced) t.after_insert = g.stats();
      c.phase = Cycle::kQuery;
      break;
    }
    case Cycle::kQuery: {
      ScopedSpan span(tracer, "core.QueryEdge*", cycle_id, 0);
      const auto query = [&g](const Edge& e) { return g.QueryEdge(e.u, e.v); };
      uint64_t ns = 0;
      const size_t hits =
          RunTimed(in.arrivals, traced ? &t.query_ns : nullptr, &ns, query);
      const size_t false_hits =
          RunTimed(in.absent, traced ? &t.query_ns : nullptr, &ns, query);
      s.query.values.push_back(
          Mops(in.arrivals.size() + in.absent.size(), ns));
      f->Count(in.arrivals.size(), in.arrivals.size() - hits,
               "ingest: present edges reported absent");
      f->Count(in.absent.size(), false_hits,
               "ingest: absent edges reported present");
      c.phase = Cycle::kSnapshot;
      break;
    }
    case Cycle::kSnapshot: {
      if (traced) {
        const uint64_t extras_start = NowNs();
        // Drain through the public cursors, then build a CSR from the
        // drained list: splits snapshot_s into the scan and the build.
        std::vector<Edge> drained;
        drained.reserve(g.NumEdges());
        const double scan_s = TimeSeconds([&] {
          ScopedSpan span(tracer, "core.scan", cycle_id, 0);
          g.ForEachNode([&](NodeId u) {
            g.ForEachNeighbor(
                u, [&](NodeId v) { drained.push_back(Edge{u, v}); });
          });
        });
        t.scan.push_back(static_cast<double>(drained.size()) / scan_s / 1e6);
        f->Count(1, drained.size() == in.distinct.size() ? 0 : 1,
                 "ingest: cursor drain edge count differs");
        t.csr_build.push_back(TimeSeconds([&] {
          ScopedSpan span(tracer, "analytics.FromEdges", cycle_id, 0);
          const CsrSnapshot csr =
              CsrSnapshot::FromEdges(Span<const Edge>(drained), {}, snap_lanes);
          f->Count(1, csr.num_edges() == in.distinct.size() ? 0 : 1,
                   "ingest: FromEdges edge count differs");
        }));
        t.snapshot_seq.push_back(TimeSeconds([&] {
          ScopedSpan span(tracer, "analytics.FromStore.seq", cycle_id, 0);
          const CsrSnapshot csr = CsrSnapshot::FromStore(g);
          f->Count(1, csr.num_edges() == in.distinct.size() ? 0 : 1,
                   "ingest: sequential snapshot edge count differs");
        }));
        c.extras_s += Seconds(NowNs() - extras_start);
      }
      s.snapshot.values.push_back(TimeSeconds([&] {
        ScopedSpan span(tracer, "analytics.FromStore", cycle_id, 0);
        c.snap = CsrSnapshot::FromStore(g, snap_lanes);
      }));
      f->Count(1, c.snap.num_edges() == in.distinct.size() ? 0 : 1,
               "ingest: snapshot edge count differs");
      if (traced) {
        t.snapshot_mb.push_back(
            static_cast<double>(c.snap.MemoryBytes()) / 1e6);
      }
      // One-lane references for the parallel kernels' checks.
      c.bfs_ref.resize(in.bfs_sources.size());
      for (size_t i = 0; i < in.bfs_sources.size(); ++i) {
        const double seq_s = TimeSeconds([&] {
          ScopedSpan span(tracer, "analytics.bfs.seq", cycle_id, 0);
          c.bfs_ref[i] = cuckoograph::analytics::bfs::Run(
              c.snap, Span<const NodeId>(&in.bfs_sources[i], 1), one_lane);
        });
        if (traced) t.bfs_seq.push_back(seq_s);
      }
      const double pr_seq_s = TimeSeconds([&] {
        ScopedSpan span(tracer, "analytics.pagerank.seq", cycle_id, 0);
        c.pagerank_ref = cuckoograph::analytics::pagerank::RunIterations(
            c.snap, kPageRankIterations, 0.85, one_lane);
      });
      if (traced) t.pagerank_seq.push_back(pr_seq_s);
      c.phase = Cycle::kAnalytics;
      break;
    }
    case Cycle::kAnalytics: {
      // One round: a BFS from every source, then one PageRank.
      for (size_t i = 0; i < in.bfs_sources.size(); ++i) {
        KernelResult par;
        const double par_s = TimeSeconds([&] {
          ScopedSpan span(tracer, "analytics.bfs", cycle_id, 0);
          par = cuckoograph::analytics::bfs::Run(
              c.snap, Span<const NodeId>(&in.bfs_sources[i], 1), lanes);
        });
        s.bfs.values.push_back(par_s);
        f->Count(1, SameDepths(par, c.bfs_ref[i]) ? 0 : 1,
                 "ingest: parallel BFS depths differ from one lane");
        if (!traced) continue;
        (c.rounds == 0 && i == 0 ? t.bfs_first : t.bfs_repeat).push_back(par_s);
        // Edges scanned by a top-down traversal: every out-edge of every
        // reached vertex (the Graph500 TEPS convention).
        double edges = 0;
        for (size_t v = 0; v < par.per_node.size(); ++v) {
          if (std::isfinite(par.per_node[v])) {
            edges += static_cast<double>(
                c.snap.Degree(static_cast<uint32_t>(v)));
          }
        }
        t.bfs_mteps.push_back(edges / par_s / 1e6);
      }
      KernelResult pr;
      s.pagerank.values.push_back(TimeSeconds([&] {
        ScopedSpan span(tracer, "analytics.pagerank", cycle_id, 0);
        pr = cuckoograph::analytics::pagerank::RunIterations(
            c.snap, kPageRankIterations, 0.85, lanes);
      }));
      f->Count(1, SameRanks(pr, c.pagerank_ref) ? 0 : 1,
               "ingest: parallel PageRank differs from one lane by > 1e-9");
      if (++c.rounds == kAnalyticsRounds) c.phase = Cycle::kDelete;
      break;
    }
    case Cycle::kDelete: {
      c.snap = CsrSnapshot();
      size_t deleted = 0;
      {
        ScopedSpan span(tracer, "core.DeleteEdge*", cycle_id, 0);
        uint64_t ns = 0;
        deleted =
            RunTimed(in.deletes, traced ? &t.delete_ns : nullptr, &ns,
                     [&g](const Edge& e) { return g.DeleteEdge(e.u, e.v); });
        s.del.values.push_back(Mops(in.deletes.size(), ns));
      }
      f->Count(in.deletes.size(), in.deletes.size() - deleted,
               "ingest: delete missed present edges");
      // Spot-check the survivors and the deleted edges (untimed).
      size_t wrong =
          g.NumEdges() == in.distinct.size() - in.deletes.size() ? 0 : 1;
      const size_t step = std::max<size_t>(1, in.deletes.size() / 4096);
      for (size_t i = 0; i < in.deletes.size(); i += step) {
        if (g.QueryEdge(in.deletes[i].u, in.deletes[i].v)) ++wrong;
      }
      f->Count(1, wrong, "ingest: store state after deletes differs");
      if (traced) {
        t.after_delete = g.stats();
        t.bytes_after_delete = static_cast<double>(g.MemoryBytes()) /
                               static_cast<double>(g.NumEdges());
      }
      completed = true;
      break;
    }
  }
  const double took = Seconds(NowNs() - unit_start);
  const double steal = StealShare(stat_start, ReadCpuStat());
  for (Series* series :
       {&s.insert, &s.query, &s.del, &s.snapshot, &s.bfs, &s.pagerank}) {
    series->Tag(steal);
  }
  c.elapsed_s += took;
  if (completed) {
    if (traced) {
      ++t.traced_cycles;
      t.traced_pass_s.push_back(c.elapsed_s - c.extras_s);
    } else {
      t.pass_s.push_back(c.elapsed_s);
    }
    c.graph.reset();
  }
  return took;
}

StageReport IngestStage::Report(const RunOptions& opts) {
  const IngestInputs& in = inputs_;
  const Samples& s = *samples_;
  StageReport r;
  r.untraced_pass_s = Median(s.pass_s);
  r.traced_pass_s = Median(s.traced_pass_s);
  r.e2e["insert_mops"] = {s.insert.Median(), "Mops"};
  r.e2e["query_mops"] = {s.query.Median(), "Mops"};
  r.e2e["delete_mops"] = {s.del.Median(), "Mops"};
  r.e2e["bytes_per_edge"] = {Median(s.bytes_per_edge), "B/edge"};
  r.e2e["snapshot_s"] = {s.snapshot.Median(), "s"};
  r.e2e["bfs_s"] = {s.bfs.Median(), "s"};
  r.e2e["pagerank_s"] = {s.pagerank.Median(), "s"};
  r.notes.push_back("ingest: " + std::to_string(s.pass_s.size()) +
                    " untraced cycles of " +
                    std::to_string(in.arrivals.size()) +
                    " arrivals (" + std::to_string(in.distinct.size()) +
                    " distinct); rates are medians over cycles of each "
                    "phase's throughput; " +
                    std::to_string(s.insert.Clean().size()) + " of " +
                    std::to_string(s.insert.values.size()) +
                    " insert phases and " +
                    std::to_string(s.bfs.Clean().size()) +
                    " of " + std::to_string(s.bfs.values.size()) +
                    " BFS calls ran at low steal");

  if (opts.traced) {
    const double inserts = static_cast<double>(in.arrivals.size());
    const auto& a = s.after_insert;
    Metrics& m = r.layer;
    m["core.insert_ns_p50"] = {s.insert_ns.Percentile(0.5), "ns"};
    m["core.insert_ns_p99"] = {s.insert_ns.Percentile(0.99), "ns"};
    m["core.insert_stalls"] = {
        static_cast<double>(s.insert_ns.CountAbove(kStallNs)) /
            static_cast<double>(s.traced_cycles),
        "count"};
    m["core.query_ns_p50"] = {s.query_ns.Percentile(0.5), "ns"};
    m["core.query_ns_p99"] = {s.query_ns.Percentile(0.99), "ns"};
    m["core.delete_ns_p50"] = {s.delete_ns.Percentile(0.5), "ns"};
    m["core.delete_ns_p99"] = {s.delete_ns.Percentile(0.99), "ns"};
    m["core.kicks_per_insert"] = {
        static_cast<double>(a.l.kicks + a.s.kicks) / inserts, "1/op"};
    m["core.rehash_moves_per_insert"] = {
        static_cast<double>(a.l.rehash_moves + a.s.rehash_moves) / inserts,
        "1/op"};
    m["core.l_expansions"] = {static_cast<double>(a.l.expansions), "count"};
    m["core.s_expansions"] = {static_cast<double>(a.s.expansions), "count"};
    m["core.s_merges"] = {static_cast<double>(a.s.merges), "count"};
    m["core.transformations"] = {static_cast<double>(a.transformations),
                                 "count"};
    m["core.denylist_parks"] = {static_cast<double>(a.denylist_parks), "count"};
    m["core.reverse_transformations"] = {
        static_cast<double>(s.after_delete.reverse_transformations -
                            a.reverse_transformations),
        "count"};
    m["core.bytes_per_edge_after_delete"] = {s.bytes_after_delete, "B/edge"};
    m["core.scan_medges_per_s"] = {Median(s.scan), "Medges/s"};
    m["analytics.csr_build_s"] = {Median(s.csr_build), "s"};
    m["analytics.snapshot_seq_s"] = {Median(s.snapshot_seq), "s"};
    m["analytics.bfs_first_s"] = {Median(s.bfs_first), "s"};
    m["analytics.bfs_repeat_s"] = {Median(s.bfs_repeat), "s"};
    m["analytics.bfs_seq_s"] = {Median(s.bfs_seq), "s"};
    m["analytics.bfs_mteps"] = {Median(s.bfs_mteps), "MTEPS"};
    m["analytics.pagerank_seq_s"] = {Median(s.pagerank_seq), "s"};
    m["analytics.snapshot_mb"] = {Median(s.snapshot_mb), "MB"};
    r.notes.push_back("ingest: " + std::to_string(s.traced_cycles) +
                      " traced cycles; per-op histograms hold " +
                      std::to_string(s.insert_ns.Count()) + " inserts, " +
                      std::to_string(s.query_ns.Count()) + " queries, " +
                      std::to_string(s.delete_ns.Count()) + " deletes");
  }
  return r;
}

}  // namespace perfbench

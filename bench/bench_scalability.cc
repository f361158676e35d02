// Thread-scalability sweep of the concurrent sharded front-end: aggregate
// insert / query / delete throughput and a disjoint-range mixed churn at
// 1..hardware_concurrency threads, against the single-threaded CuckooGraph
// as the no-locks baseline. Every phase self-checks its final state
// against expected counts and the binary exits non-zero on disagreement,
// so the CI smoke run is a correctness gate too.
//
// Flags: --scale (stream size multiplier), --shards (Config::num_shards),
// --threads (sweep ceiling, default hardware_concurrency), --csv <path>.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/config.h"
#include "core/cuckoo_graph.h"
#include "core/internal/simd_probe.h"
#include "core/sharded_cuckoo_graph.h"

namespace cuckoograph {
namespace {

// The default synthetic stream: the bench_micro_ops shape (sources from a
// skewed 1/8 range so chains and inline slots both appear).
std::vector<Edge> MakeStream(size_t ops) {
  SplitMix64 rng(2025);
  std::vector<Edge> stream;
  stream.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    stream.push_back(
        Edge{rng.NextBelow(ops / 8 + 1), rng.NextBelow(ops) + 1});
  }
  return stream;
}

// Runs fn(t) on `threads` worker threads and returns the wall time of the
// whole phase (spawn to last join — the aggregate-throughput denominator).
template <typename Fn>
double TimePhase(int threads, Fn fn) {
  WallTimer timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) workers.emplace_back(fn, t);
  for (std::thread& w : workers) w.join();
  return timer.ElapsedSeconds();
}

// The thread's slice of [0, n): contiguous chunks, remainder to the last.
std::pair<size_t, size_t> Chunk(size_t n, int threads, int t) {
  const size_t per = n / static_cast<size_t>(threads);
  const size_t begin = per * static_cast<size_t>(t);
  const size_t end =
      t == threads - 1 ? n : begin + per;
  return {begin, end};
}

struct SweepResult {
  double insert_mops = 0;
  double query_mops = 0;
  double delete_mops = 0;
  double mixed_mops = 0;
  bool ok = true;
};

// Disjoint-range mixed churn: thread t inserts/deletes/queries inside its
// own source range, so a single-threaded replay of each range is the
// oracle for the shared store's final state.
constexpr NodeId kChurnBase = 0x40000000;
constexpr NodeId kChurnRange = 512;
constexpr size_t kChurnOpsPerThread = 1 << 15;

size_t ChurnOracleEdges(int threads) {
  size_t total = 0;
  for (int t = 0; t < threads; ++t) {
    SplitMix64 rng(9000 + static_cast<uint64_t>(t));
    std::unordered_set<uint64_t> live;
    for (size_t i = 0; i < kChurnOpsPerThread; ++i) {
      const NodeId u = kChurnBase +
                       static_cast<NodeId>(t) * 10 * kChurnRange +
                       rng.NextBelow(kChurnRange);
      const NodeId v = rng.NextBelow(256);
      const uint64_t kind = rng.NextBelow64(4);
      if (kind == 0) {
        live.erase(EdgeKey(Edge{u, v}));
      } else if (kind == 1) {
        // Query: consumes no oracle state, matches the store-side stream.
      } else {
        live.insert(EdgeKey(Edge{u, v}));
      }
    }
    total += live.size();
  }
  return total;
}

SweepResult RunSweep(GraphStore& store, const std::vector<Edge>& stream,
                     size_t distinct, int threads) {
  SweepResult result;
  const size_t n = stream.size();

  // Phase 1: concurrent insertion of the whole stream.
  const double insert_s = TimePhase(threads, [&](int t) {
    const auto [begin, end] = Chunk(n, threads, t);
    for (size_t i = begin; i < end; ++i) {
      store.InsertEdge(stream[i].u, stream[i].v);
    }
  });
  result.insert_mops = Mops(n, insert_s);
  if (store.NumEdges() != distinct) {
    std::fprintf(stderr,
                 "FAIL: %d-thread insert left %zu edges, expected %zu\n",
                 threads, store.NumEdges(), distinct);
    result.ok = false;
  }

  // Phase 2: concurrent point queries of every stream edge (all hits).
  std::atomic<size_t> found{0};
  const double query_s = TimePhase(threads, [&](int t) {
    const auto [begin, end] = Chunk(n, threads, t);
    size_t hits = 0;
    for (size_t i = begin; i < end; ++i) {
      hits += store.QueryEdge(stream[i].u, stream[i].v) ? 1 : 0;
    }
    found += hits;
  });
  result.query_mops = Mops(n, query_s);
  if (found.load() != n) {
    std::fprintf(stderr, "FAIL: %d-thread query found %zu of %zu edges\n",
                 threads, found.load(), n);
    result.ok = false;
  }

  // Phase 3: disjoint-range mixed churn on top of the loaded store.
  const double mixed_s = TimePhase(threads, [&](int t) {
    SplitMix64 rng(9000 + static_cast<uint64_t>(t));
    for (size_t i = 0; i < kChurnOpsPerThread; ++i) {
      const NodeId u = kChurnBase +
                       static_cast<NodeId>(t) * 10 * kChurnRange +
                       rng.NextBelow(kChurnRange);
      const NodeId v = rng.NextBelow(256);
      const uint64_t kind = rng.NextBelow64(4);
      if (kind == 0) {
        store.DeleteEdge(u, v);
      } else if (kind == 1) {
        store.QueryEdge(u, v);
      } else {
        store.InsertEdge(u, v);
      }
    }
  });
  result.mixed_mops =
      Mops(kChurnOpsPerThread * static_cast<size_t>(threads), mixed_s);
  const size_t churn_expected = distinct + ChurnOracleEdges(threads);
  if (store.NumEdges() != churn_expected) {
    std::fprintf(stderr,
                 "FAIL: %d-thread mixed churn left %zu edges, expected "
                 "%zu\n",
                 threads, store.NumEdges(), churn_expected);
    result.ok = false;
  }

  // Phase 4: concurrent deletion of the stream (duplicates miss).
  std::atomic<size_t> removed{0};
  const double delete_s = TimePhase(threads, [&](int t) {
    const auto [begin, end] = Chunk(n, threads, t);
    size_t hits = 0;
    for (size_t i = begin; i < end; ++i) {
      hits += store.DeleteEdge(stream[i].u, stream[i].v) ? 1 : 0;
    }
    removed += hits;
  });
  result.delete_mops = Mops(n, delete_s);
  if (removed.load() != distinct) {
    std::fprintf(stderr,
                 "FAIL: %d-thread delete removed %zu edges, expected %zu\n",
                 threads, removed.load(), distinct);
    result.ok = false;
  }
  return result;
}

std::string FmtX(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2fx", x);
  return buffer;
}

// ---- Read-path scaling: stripe-locked reads --------------------------------
//
// A loaded store is swept once per thread count over two phases:
//  - query-only: every thread walks the whole stream (all hits) with no
//    writer anywhere, so the row measures shared-lock reads alone;
//  - read-mostly (95/5): each thread interleaves 19 point queries with
//    one insert-or-delete in a thread-private source range, so readers
//    contend with writers on shared shards. A single-threaded replay of
//    each thread's mutation stream is the oracle for the final edge
//    count, and every query targets a loaded stream edge (the churn
//    sources are disjoint), so every probe must hit.

constexpr NodeId kReadChurnBase = 0x60000000;  // disjoint from the rest
constexpr size_t kReadMostlyOpsPerThread = 1 << 15;

size_t ReadMostlyOracleEdges(int threads) {
  size_t total = 0;
  for (int t = 0; t < threads; ++t) {
    SplitMix64 rng(4400 + static_cast<uint64_t>(t));
    std::unordered_set<uint64_t> live;
    for (size_t i = 0; i < kReadMostlyOpsPerThread; ++i) {
      if (i % 20 == 19) {
        const NodeId u = kReadChurnBase +
                         static_cast<NodeId>(t) * 10 * kChurnRange +
                         rng.NextBelow(kChurnRange);
        const NodeId v = rng.NextBelow(256);
        if (rng.NextBelow64(2) == 0) {
          live.insert(EdgeKey(Edge{u, v}));
        } else {
          live.erase(EdgeKey(Edge{u, v}));
        }
      } else {
        rng.NextBelow64(1);  // the query's index draw, replayed exactly
      }
    }
    total += live.size();
  }
  return total;
}

struct ReadScaleResult {
  double query_mops = 0;
  double read_mostly_mops = 0;
  bool ok = true;
};

ReadScaleResult RunReadScaling(const Config& config,
                               const std::vector<Edge>& stream,
                               size_t distinct, int threads) {
  ShardedCuckooGraph store(config);
  for (const Edge& e : stream) store.InsertEdge(e.u, e.v);

  ReadScaleResult result;
  const size_t n = stream.size();
  if (store.NumEdges() != distinct) {
    std::fprintf(stderr,
                 "FAIL: read-scaling/%d load left %zu edges, expected %zu\n",
                 threads, store.NumEdges(), distinct);
    result.ok = false;
  }

  // Phase 1: query-only (each thread walks the whole stream, offset so
  // the threads do not probe the same shard in lockstep).
  std::atomic<size_t> found{0};
  const double query_s = TimePhase(threads, [&](int t) {
    const size_t start =
        (n / static_cast<size_t>(threads)) * static_cast<size_t>(t);
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t j = start + i;
      const Edge& e = stream[j < n ? j : j - n];
      hits += store.QueryEdge(e.u, e.v) ? 1 : 0;
    }
    found += hits;
  });
  result.query_mops = Mops(n * static_cast<size_t>(threads), query_s);
  if (found.load() != n * static_cast<size_t>(threads)) {
    std::fprintf(stderr,
                 "FAIL: read-scaling/%d query-only found %zu of %zu probes\n",
                 threads, found.load(), n * static_cast<size_t>(threads));
    result.ok = false;
  }

  // Phase 2: 95/5 read-mostly mix.
  std::atomic<size_t> issued{0};
  std::atomic<size_t> hit{0};
  const double mixed_s = TimePhase(threads, [&](int t) {
    SplitMix64 rng(4400 + static_cast<uint64_t>(t));
    const NodeId churn_base =
        kReadChurnBase + static_cast<NodeId>(t) * 10 * kChurnRange;
    size_t queries = 0;
    size_t hits = 0;
    for (size_t i = 0; i < kReadMostlyOpsPerThread; ++i) {
      if (i % 20 == 19) {
        const NodeId u = churn_base + rng.NextBelow(kChurnRange);
        const NodeId v = rng.NextBelow(256);
        if (rng.NextBelow64(2) == 0) {
          store.InsertEdge(u, v);
        } else {
          store.DeleteEdge(u, v);
        }
      } else {
        const Edge& e = stream[rng.NextBelow64(n)];
        ++queries;
        hits += store.QueryEdge(e.u, e.v) ? 1 : 0;
      }
    }
    issued += queries;
    hit += hits;
  });
  result.read_mostly_mops = Mops(
      kReadMostlyOpsPerThread * static_cast<size_t>(threads), mixed_s);
  if (hit.load() != issued.load()) {
    std::fprintf(stderr,
                 "FAIL: read-scaling/%d read-mostly hit %zu of %zu pinned "
                 "probes\n",
                 threads, hit.load(), issued.load());
    result.ok = false;
  }
  const size_t expected = distinct + ReadMostlyOracleEdges(threads);
  if (store.NumEdges() != expected) {
    std::fprintf(stderr,
                 "FAIL: read-scaling/%d read-mostly left %zu edges, "
                 "expected %zu\n",
                 threads, store.NumEdges(), expected);
    result.ok = false;
  }
  return result;
}

}  // namespace
}  // namespace cuckoograph

int main(int argc, char** argv) {
  using namespace cuckoograph;
  const Flags flags(argc, argv);
  const double user_scale = flags.GetDouble("scale", 1.0);
  const int max_threads = static_cast<int>(flags.GetInt(
      "threads",
      std::max(1u, std::thread::hardware_concurrency())));
  Config config;
  config.num_shards = static_cast<size_t>(
      flags.GetInt("shards", static_cast<long long>(config.num_shards)));
  bench::MaybeOpenCsvFromFlags(flags);

  const size_t ops =
      std::max<size_t>(20'000, static_cast<size_t>(600'000 * user_scale));
  const std::vector<Edge> stream = MakeStream(ops);
  std::unordered_set<uint64_t> dedup;
  dedup.reserve(stream.size());
  for (const Edge& e : stream) dedup.insert(EdgeKey(e));
  const size_t distinct = dedup.size();

  // Data columns only: PrintHeader injects the leading label column
  // (each row's label is "store/threads").
  bench::PrintHeader(
      "scalability",
      "Thread sweep, aggregate Mops (probe backend: " +
          std::string(internal::ProbeBackendName()) + ")",
      {"insert", "query", "delete", "mixed(disjoint)", "agg speedup"});

  bool ok = true;
  const auto report = [&ok](const std::string& label,
                            const SweepResult& r, double baseline_agg) {
    const double agg = r.insert_mops + r.query_mops;
    bench::PrintRow("scalability",
                    {label, bench::FmtMops(r.insert_mops),
                     bench::FmtMops(r.query_mops),
                     bench::FmtMops(r.delete_mops),
                     bench::FmtMops(r.mixed_mops),
                     baseline_agg > 0 ? FmtX(agg / baseline_agg) : "-"});
    ok = ok && r.ok;
    return agg;
  };

  // Baseline: the unsharded, lock-free-by-exclusivity core at one thread.
  {
    CuckooGraph core(config);
    const SweepResult r = RunSweep(core, stream, distinct, 1);
    report("CuckooGraph/1", r, 0);
  }

  double sharded_1t_agg = 0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    ShardedCuckooGraph store(config);
    const SweepResult r = RunSweep(store, stream, distinct, threads);
    if (threads == 1) sharded_1t_agg = r.insert_mops + r.query_mops;
    report("cuckoo-sharded/" + std::to_string(threads), r, sharded_1t_agg);
    // Keep the ceiling in the sweep even when it is not a power of two.
    if (threads < max_threads && threads * 2 > max_threads) {
      ShardedCuckooGraph last(config);
      const SweepResult rl = RunSweep(last, stream, distinct, max_threads);
      report("cuckoo-sharded/" + std::to_string(max_threads), rl,
             sharded_1t_agg);
      break;
    }
  }

  // Read-path scaling: one row per thread count.
  bench::PrintHeader("read-scaling",
                     "Read-path sweep, aggregate Mops: stripe-locked reads",
                     {"query-only", "read-mostly(95/5)"});
  const auto read_scale_row = [&](int threads) {
    const ReadScaleResult r = RunReadScaling(config, stream, distinct, threads);
    bench::PrintRow("read-scaling",
                    {"cuckoo-sharded/" + std::to_string(threads),
                     bench::FmtMops(r.query_mops),
                     bench::FmtMops(r.read_mostly_mops)});
    ok = ok && r.ok;
  };
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    read_scale_row(threads);
    if (threads < max_threads && threads * 2 > max_threads) {
      read_scale_row(max_threads);  // keep the non-power-of-two ceiling
      break;
    }
  }

  bench::CloseCsv();
  if (!ok) {
    std::fprintf(stderr, "scalability: self-check FAILED\n");
    return 1;
  }
  return 0;
}

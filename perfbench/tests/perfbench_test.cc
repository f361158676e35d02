// Unit tests of the benchmark's own parts: the latency histogram, the
// timing decorator and the seeded generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "generators.h"
#include "histogram.h"
#include "stages.h"
#include "timing_store.h"

namespace perfbench {
namespace {

using cuckoograph::NeighborCursor;
using cuckoograph::Span;
using cuckoograph::StoreCapabilities;

// ---- Histogram --------------------------------------------------------------

TEST(HistogramTest, PercentilesTrackSortedReference) {
  cuckoograph::SplitMix64 rng(7);
  for (const uint64_t max_exp : {6u, 12u, 20u, 34u}) {
    Histogram h;
    std::vector<double> ref;
    for (int i = 0; i < 20000; ++i) {
      // Log-uniform values, so every bucket size is exercised.
      const double e = rng.NextDouble() * static_cast<double>(max_exp);
      const uint64_t v = static_cast<uint64_t>(std::exp2(e));
      h.Record(v);
      ref.push_back(static_cast<double>(v));
    }
    ASSERT_EQ(h.Count(), ref.size());
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double want = Percentile(ref, q);
      EXPECT_NEAR(h.Percentile(q), want, want / 64 + 0.5)
          << "q=" << q << " max_exp=" << max_exp;
    }
  }
}

TEST(HistogramTest, SmallValuesAreExactAndCountAboveSplitsAtBoundaries) {
  Histogram h;
  for (uint64_t v = 0; v < 64; ++v) h.Record(v);
  EXPECT_EQ(h.Percentile(0.5), 31.0);
  EXPECT_EQ(h.Percentile(1.0), 63.0);
  h.Record(100000);
  h.Record(99999);
  EXPECT_EQ(h.CountAbove(63), 2u);
  EXPECT_EQ(h.CountAbove(1 << 17), 0u);
  EXPECT_EQ(Histogram().Percentile(0.5), 0.0);
}

TEST(HistogramTest, BucketsAreContiguousAndMonotone) {
  for (size_t b = 0; b + 1 < Histogram::kBuckets; ++b) {
    ASSERT_LT(Histogram::BucketLow(b), Histogram::BucketLow(b + 1));
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLow(b)), b);
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketLow(b + 1) - 1), b);
  }
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), Histogram::kBuckets - 1);
}

// ---- Series -----------------------------------------------------------------

TEST(SeriesTest, CleanKeepsLowStealSamplesOrTheLeastStolenQuarter) {
  Series s;
  s.values = {1, 2, 3, 4};
  s.Tag(0.01);
  s.values.push_back(100);
  s.Tag(0.20);
  EXPECT_EQ(s.Clean(), (std::vector<double>{1, 2, 3, 4}));
  EXPECT_EQ(s.Median(), 2.5);

  Series busy;
  for (int i = 0; i < 8; ++i) {
    busy.values.push_back(i);
    busy.Tag(0.5 - i * 0.01);  // later samples saw less steal
  }
  EXPECT_EQ(busy.Clean(), (std::vector<double>{7, 6}));

  Series merged;
  merged.Append(s);
  merged.Append(busy);
  EXPECT_EQ(merged.values.size(), 13u);
  EXPECT_EQ(merged.steal.size(), 13u);
}

// ---- TimingStore ------------------------------------------------------------

class SingleCursor final : public NeighborCursor {
 public:
  explicit SingleCursor(NodeId id) : id_(id) {}
  size_t Next(NodeId* out, size_t) override {
    if (done_) return 0;
    done_ = true;
    out[0] = id_;
    return 1;
  }

 private:
  NodeId id_;
  bool done_ = false;
};

// Records every virtual call and answers with values a forwarding bug
// would not produce by accident.
class RecordingStore final : public cuckoograph::GraphStore {
 public:
  mutable std::vector<std::string> calls;

  std::string_view name() const override { return "recording"; }
  StoreCapabilities Capabilities() const override {
    calls.push_back("Capabilities");
    StoreCapabilities caps;
    caps.weighted = true;
    caps.deletions = false;
    caps.stable_iteration = true;
    caps.concurrent_mutations = true;
    caps.durable = true;
    return caps;
  }
  bool InsertEdge(NodeId u, NodeId v) override {
    calls.push_back("InsertEdge");
    return u == 1 && v == 2;
  }
  bool QueryEdge(NodeId u, NodeId v) const override {
    calls.push_back("QueryEdge");
    return u == 3 && v == 4;
  }
  bool DeleteEdge(NodeId u, NodeId v) override {
    calls.push_back("DeleteEdge");
    return u == 5 && v == 6;
  }
  uint64_t EdgeWeight(NodeId u, NodeId v) const override {
    calls.push_back("EdgeWeight");
    return u * 100 + v;
  }
  size_t InsertEdges(Span<const Edge> edges) override {
    calls.push_back("InsertEdges");
    return edges.size() + 1000;
  }
  size_t QueryEdges(Span<const Edge> edges) const override {
    calls.push_back("QueryEdges");
    return edges.size() + 2000;
  }
  size_t DeleteEdges(Span<const Edge> edges) override {
    calls.push_back("DeleteEdges");
    return edges.size() + 3000;
  }
  std::unique_ptr<NeighborCursor> Neighbors(NodeId u) const override {
    calls.push_back("Neighbors");
    return std::make_unique<SingleCursor>(u + 7);
  }
  std::unique_ptr<NeighborCursor> Nodes() const override {
    calls.push_back("Nodes");
    return std::make_unique<SingleCursor>(42);
  }
  size_t OutDegree(NodeId u) const override {
    calls.push_back("OutDegree");
    return u + 9;
  }
  size_t NumEdges() const override {
    calls.push_back("NumEdges");
    return 11;
  }
  size_t NumNodes() const override {
    calls.push_back("NumNodes");
    return 12;
  }
  size_t MemoryBytes() const override {
    calls.push_back("MemoryBytes");
    return 13;
  }
};

TEST(TimingStoreTest, ForwardsEveryVirtualExactlyOnce) {
  auto owned = std::make_unique<RecordingStore>();
  RecordingStore* inner = owned.get();
  StoreTimings timings;
  TimingStore store(std::move(owned), &timings, nullptr);
  const std::vector<Edge> batch = {{1, 2}, {3, 4}, {5, 6}};
  const Span<const Edge> span(batch);

  EXPECT_EQ(store.name(), "recording");
  const StoreCapabilities caps = store.Capabilities();
  EXPECT_TRUE(caps.weighted);
  EXPECT_FALSE(caps.deletions);
  EXPECT_TRUE(caps.stable_iteration);
  EXPECT_TRUE(caps.concurrent_mutations);
  EXPECT_TRUE(caps.durable);
  EXPECT_TRUE(store.InsertEdge(1, 2));
  EXPECT_TRUE(store.QueryEdge(3, 4));
  EXPECT_FALSE(store.QueryEdge(4, 3));
  EXPECT_TRUE(store.DeleteEdge(5, 6));
  EXPECT_EQ(store.EdgeWeight(2, 5), 205u);
  EXPECT_EQ(store.InsertEdges(span), 1003u);
  EXPECT_EQ(store.QueryEdges(span), 2003u);
  EXPECT_EQ(store.DeleteEdges(span), 3003u);
  NodeId id = 0;
  EXPECT_EQ(store.Neighbors(1)->Next(&id, 1), 1u);
  EXPECT_EQ(id, 8u);
  EXPECT_EQ(store.Nodes()->Next(&id, 1), 1u);
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(store.OutDegree(1), 10u);
  EXPECT_EQ(store.NumEdges(), 11u);
  EXPECT_EQ(store.NumNodes(), 12u);
  EXPECT_EQ(store.MemoryBytes(), 13u);

  const std::vector<std::string> want = {
      "Capabilities", "InsertEdge",  "QueryEdge",   "QueryEdge",
      "DeleteEdge",   "EdgeWeight",  "InsertEdges", "QueryEdges",
      "DeleteEdges",  "Neighbors",   "Nodes",       "OutDegree",
      "NumEdges",     "NumNodes",    "MemoryBytes"};
  EXPECT_EQ(inner->calls, want);
}

TEST(TimingStoreTest, TimesEdgeOpsAndReportsInnerTime) {
  StoreTimings timings;
  TimingStore store(std::make_unique<RecordingStore>(), &timings, nullptr);
  const std::vector<Edge> batch = {{1, 2}};
  CurrentThreadTrace().inner_ns = 0;
  store.InsertEdge(1, 2);
  store.QueryEdge(1, 2);
  store.QueryEdge(1, 2);
  store.DeleteEdge(1, 2);
  store.EdgeWeight(1, 2);
  store.OutDegree(1);
  store.InsertEdges(Span<const Edge>(batch));
  store.QueryEdges(Span<const Edge>(batch));
  store.DeleteEdges(Span<const Edge>(batch));
  EXPECT_EQ(timings.insert_ns.Count(), 1u);
  EXPECT_EQ(timings.query_ns.Count(), 2u);
  EXPECT_EQ(timings.delete_ns.Count(), 1u);
  EXPECT_EQ(timings.weight_ns.Count(), 1u);
  EXPECT_EQ(timings.degree_ns.Count(), 1u);
  EXPECT_EQ(timings.insert_batch_ns.Count(), 1u);
  EXPECT_EQ(timings.query_batch_ns.Count(), 1u);
  EXPECT_EQ(timings.delete_batch_ns.Count(), 1u);
  EXPECT_GT(CurrentThreadTrace().inner_ns, 0u);
  CurrentThreadTrace() = ThreadTraceContext();
}

// ---- Generators -------------------------------------------------------------

IngestSpec SmallIngest() {
  IngestSpec spec;
  spec.arrivals = 20000;
  spec.vertex_bits = 14;
  return spec;
}

TEST(GeneratorTest, IngestIsReproducibleAndSeedDependent) {
  IngestInputs a, b, c;
  MakeIngestInputs(SmallIngest(), 5, &a);
  MakeIngestInputs(SmallIngest(), 5, &b);
  MakeIngestInputs(SmallIngest(), 6, &c);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.absent, b.absent);
  EXPECT_EQ(a.distinct, b.distinct);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.bfs_sources, b.bfs_sources);
  EXPECT_NE(a.arrivals, c.arrivals);
  EXPECT_NE(a.absent, c.absent);
}

TEST(GeneratorTest, IngestOracleIsConsistent) {
  IngestInputs in;
  MakeIngestInputs(SmallIngest(), 9, &in);
  ASSERT_EQ(in.arrivals.size(), 20000u);
  EXPECT_LT(in.distinct.size(), in.arrivals.size());  // some duplicates
  EXPECT_TRUE(std::is_sorted(in.distinct.begin(), in.distinct.end()));
  EXPECT_EQ(in.deletes.size(), in.distinct.size() / 2);
  for (const Edge& e : in.deletes) {
    EXPECT_TRUE(std::binary_search(in.distinct.begin(), in.distinct.end(),
                                   cuckoograph::EdgeKey(e)));
  }
  for (const Edge& e : in.absent) {
    EXPECT_FALSE(std::binary_search(in.distinct.begin(), in.distinct.end(),
                                    cuckoograph::EdgeKey(e)));
  }
  EXPECT_EQ(in.bfs_sources.size(), 4u);
}

TEST(GeneratorTest, ServedIsReproducibleAndSeedDependent) {
  ServedSpec spec;
  spec.batches = 64;
  std::vector<ServedConnection> a, b, c;
  MakeServedInputs(spec, 5, &a);
  MakeServedInputs(spec, 5, &b);
  MakeServedInputs(spec, 6, &c);
  ASSERT_EQ(a.size(), spec.connections);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request_bytes, b[i].request_bytes);
    EXPECT_EQ(a[i].reply_bytes, b[i].reply_bytes);
    EXPECT_NE(a[i].request_bytes, c[i].request_bytes);
    EXPECT_EQ(a[i].commands.size() % spec.depth, 0u);
    EXPECT_EQ(a[i].request_offsets.size(),
              a[i].commands.size() / spec.depth + 1);
  }
}

TEST(GeneratorTest, DurableIsReproducibleAndSeedDependent) {
  DurableSpec spec;
  spec.batches = 40;
  std::vector<DurableWriter> a, b, c;
  MakeDurableInputs(spec, 5, &a);
  MakeDurableInputs(spec, 5, &b);
  MakeDurableInputs(spec, 6, &c);
  ASSERT_EQ(a.size(), spec.writers);
  for (size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].final_edges, b[w].final_edges);
    EXPECT_NE(a[w].final_edges, c[w].final_edges);
    for (size_t i = 0; i < a[w].batches.size(); ++i) {
      EXPECT_EQ(a[w].batches[i].edges, b[w].batches[i].edges);
      EXPECT_EQ(a[w].batches[i].expected, b[w].batches[i].expected);
    }
  }
}

TEST(GeneratorTest, ZipfRanksAreInRangeAndSkewed) {
  const ZipfSampler zipf(1000, 1.0);
  cuckoograph::SplitMix64 rng(3);
  std::vector<int> counts(1001, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t r = zipf.Next(&rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 1000u);
    ++counts[r];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
  EXPECT_GT(counts[10], counts[500]);
  // Rank 1 of a Zipf(1) law over 1000 ranks takes 1/H(1000) = 13.4%.
  EXPECT_NEAR(counts[1] / 100000.0, 0.134, 0.01);
}

}  // namespace
}  // namespace perfbench

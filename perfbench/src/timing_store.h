// A forwarding GraphStore decorator that times every call into the store
// it wraps, so the benchmark can split a served or durable operation into
// "the layer above" and "the store" without touching the program.
//
// Edge ops record their latency (ns) into per-op histograms and add it to
// the calling thread's ThreadTraceContext::inner_ns, which the caller of
// an outer layer (e.g. DurableStore) subtracts from its own timing. Batch
// calls also record a span carrying the thread's current batch id when
// the tracer is on. Cursor and accounting calls are forwarded untimed.
#ifndef PERFBENCH_TIMING_STORE_H_
#define PERFBENCH_TIMING_STORE_H_

#include <memory>
#include <string_view>
#include <utility>

#include "core/graph_store.h"
#include "histogram.h"
#include "trace.h"

namespace perfbench {

struct StoreTimings {
  Histogram insert_ns, query_ns, delete_ns, weight_ns, degree_ns;
  Histogram insert_batch_ns, query_batch_ns, delete_batch_ns;
};

class TimingStore final : public cuckoograph::GraphStore {
 public:
  using Edge = cuckoograph::Edge;
  using NodeId = cuckoograph::NodeId;
  template <typename T>
  using Span = cuckoograph::Span<T>;

  // Timings accumulate into `*timings`, which must outlive the decorator
  // (several decorators may share one). `tracer` may be null (no spans);
  // batch spans are named after the layer the benchmark wraps,
  // core.sharded.
  TimingStore(std::unique_ptr<cuckoograph::GraphStore> inner,
              StoreTimings* timings, Tracer* tracer)
      : inner_(std::move(inner)), timings_(timings), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  cuckoograph::StoreCapabilities Capabilities() const override {
    return inner_->Capabilities();
  }

  bool InsertEdge(NodeId u, NodeId v) override {
    Timed t(&timings_->insert_ns);
    return inner_->InsertEdge(u, v);
  }
  bool QueryEdge(NodeId u, NodeId v) const override {
    Timed t(&timings_->query_ns);
    return inner_->QueryEdge(u, v);
  }
  bool DeleteEdge(NodeId u, NodeId v) override {
    Timed t(&timings_->delete_ns);
    return inner_->DeleteEdge(u, v);
  }
  uint64_t EdgeWeight(NodeId u, NodeId v) const override {
    Timed t(&timings_->weight_ns);
    return inner_->EdgeWeight(u, v);
  }
  size_t OutDegree(NodeId u) const override {
    Timed t(&timings_->degree_ns);
    return inner_->OutDegree(u);
  }

  size_t InsertEdges(Span<const Edge> edges) override {
    Timed t(&timings_->insert_batch_ns, tracer_, "core.sharded.InsertEdges");
    return inner_->InsertEdges(edges);
  }
  size_t QueryEdges(Span<const Edge> edges) const override {
    Timed t(&timings_->query_batch_ns, tracer_, "core.sharded.QueryEdges");
    return inner_->QueryEdges(edges);
  }
  size_t DeleteEdges(Span<const Edge> edges) override {
    Timed t(&timings_->delete_batch_ns, tracer_, "core.sharded.DeleteEdges");
    return inner_->DeleteEdges(edges);
  }

  std::unique_ptr<cuckoograph::NeighborCursor> Neighbors(
      NodeId u) const override {
    return inner_->Neighbors(u);
  }
  std::unique_ptr<cuckoograph::NeighborCursor> Nodes() const override {
    return inner_->Nodes();
  }
  size_t NumEdges() const override { return inner_->NumEdges(); }
  size_t NumNodes() const override { return inner_->NumNodes(); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

 private:
  class Timed {
   public:
    explicit Timed(Histogram* h, Tracer* tracer = nullptr,
                   const char* span = nullptr)
        : h_(h),
          tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
          span_(span),
          start_(NowNs()) {}
    ~Timed() {
      const uint64_t end = NowNs();
      h_->Record(end - start_);
      ThreadTraceContext& ctx = CurrentThreadTrace();
      ctx.inner_ns += end - start_;
      if (tracer_ != nullptr) {
        tracer_->Add(span_, ctx.batch_id, ctx.batch_id, start_, end, ctx.tid);
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    Histogram* h_;
    Tracer* tracer_;
    const char* span_;
    uint64_t start_;
  };

  std::unique_ptr<cuckoograph::GraphStore> inner_;
  StoreTimings* timings_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_STORE_H_

// In-memory span recorder for the traced run, plus the thread-local hooks
// the timing decorator uses to tell an outer layer how much of its call
// was spent in the layer below.
//
// Spans are recorded at phase and batch granularity only (per-op calls go
// into histograms); they stay in memory and are written once, as Chrome
// trace-event JSON, when the benchmark ends. Every span of one batch
// carries that batch's id.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name;  // static string: "<layer>.<call>"
  uint64_t id;       // batch id (0 for phase spans)
  uint64_t parent;   // id of the causing span's batch/phase (0 = root)
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t tid;
};

class Tracer {
 public:
  static constexpr size_t kMaxSpans = 1 << 20;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void Add(const char* name, uint64_t id, uint64_t parent, uint64_t start_ns,
           uint64_t end_ns, uint32_t tid) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, id, parent, start_ns, end_ns, tid});
  }

  // Writes the spans as Chrome trace-event JSON; returns false on I/O error.
  bool WriteJson(const std::string& path) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
};

// Records a span over its scope when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t id, uint64_t parent,
             uint32_t tid = 0)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        name_(name),
        id_(id),
        parent_(parent),
        tid_(tid),
        start_(tracer_ != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Add(name_, id_, parent_, start_, NowNs(), tid_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_;
  uint64_t parent_;
  uint32_t tid_;
  uint64_t start_;
};

// Per-thread context set by a workload's batch loop and read by the
// timing decorator: the batch the current call belongs to, and the time
// the decorator spent in the wrapped store since the loop last reset it.
struct ThreadTraceContext {
  uint64_t batch_id = 0;
  uint32_t tid = 0;
  uint64_t inner_ns = 0;
};

ThreadTraceContext& CurrentThreadTrace();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

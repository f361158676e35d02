#include "trace.h"

#include <cstdio>

namespace perfbench {

ThreadTraceContext& CurrentThreadTrace() {
  thread_local ThreadTraceContext context;
  return context;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"dropped_spans\":%llu,\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const uint64_t start = s.start_ns >= base ? s.start_ns - base : 0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(start) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

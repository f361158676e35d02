// The benchmark binary: one process sets up and runs the ingest, served and
// durable stages for one workload and prints the run's record.
//
//   perfbench --workload <ingest|durable> --seed <n> --seconds <s>
//             --trace <0|1> [--workdir <dir>] [--trace-out <file>]
//
// Every workload runs all three stages so every run reports every metric;
// the workload picks which stage gets the large input and most of the
// --seconds budget (README.md gives the reasons). The last stdout line is
// the result object; the line before it is the full record (environment,
// sample counts, failures). The exit code is non-zero on any failed check.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "stages.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Plan {
  IngestSpec ingest;
  ServedSpec served;
  DurableSpec durable;
  double ingest_share = 0.25, served_share = 0.25, durable_share = 0.25;
};

// Each workload gives one stage half the run; the ingest workload also
// gives its stage the large input.
bool MakePlan(const std::string& workload, Plan* plan) {
  if (workload == "ingest") {
    plan->ingest.arrivals = 1 << 21;  // the store ends far past L2
    plan->ingest_share = 0.5;
  } else if (workload == "durable") {
    plan->ingest.arrivals = 1 << 20;  // past L2, cheap enough to cycle
    plan->durable_share = 0.5;
  } else {
    return false;
  }
  return true;
}

struct Slot {
  Stage* stage;
  double share;  // of the run's time
  double spent = 0;
  double last = 0;  // the last unit's time
  size_t cycles_before = 0;  // CompletedCycles() when the phase began
};

// Interleaves the stages' units so each stage gets its share of `budget`
// and its samples are spread over the whole phase: the next unit always
// goes to the stage furthest below its share. Every stage runs at least
// once and no unit starts that would overrun the budget, except that a
// stage's first cycle of the phase always finishes, so every metric gets
// samples; a trace run finishes every cycle, so both halves hold whole
// cycles for trace.overhead.
void RunPhase(std::vector<Slot>* slots, double budget, const RunOptions& opts,
              bool traced, Failures* f) {
  for (Slot& s : *slots) {
    s.spent = s.last = 0;
    s.cycles_before = s.stage->CompletedCycles();
  }
  double total = 0;
  for (;;) {
    Slot* next = nullptr;
    bool all_ran = true;
    for (Slot& s : *slots) {
      all_ran &= s.spent > 0;
      if (next == nullptr || s.spent / s.share < next->spent / next->share) {
        next = &s;
      }
    }
    if (all_ran && total + next->last > budget) {
      next = nullptr;
      for (Slot& s : *slots) {
        const bool first_cycle = s.stage->CompletedCycles() == s.cycles_before;
        if (!s.stage->AtBoundary() && (traced || first_cycle)) next = &s;
      }
      if (next == nullptr) break;
    }
    next->last = next->stage->RunUnit(opts, traced, f);
    next->spent += next->last;
    total += next->last;
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

// Effective parallelism: nproc spinners' total work over the time one
// spinner takes for the same work (about 2 s). Each spinner stores its
// result to its own volatile, so the loops cannot be folded away.
double EffectiveParallelism(unsigned nproc) {
  const auto spin = [](uint64_t iterations) {
    uint64_t x = 88172645463325252ULL;
    for (uint64_t i = 0; i < iterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile uint64_t sink = x;
    (void)sink;
  };
  uint64_t t0 = NowNs();
  spin(1 << 22);
  const double per_iter = static_cast<double>(NowNs() - t0) / (1 << 22);
  const uint64_t work = static_cast<uint64_t>(0.4e9 / std::max(per_iter, 0.01));
  t0 = NowNs();
  spin(work);
  const double one = static_cast<double>(NowNs() - t0);
  t0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < nproc; ++i) threads.emplace_back(spin, work);
    for (std::thread& t : threads) t.join();
  }
  const double all = static_cast<double>(NowNs() - t0);
  return static_cast<double>(nproc) * one / all;
}

int Main(int argc, char** argv) {
  std::string workload, workdir = ".", trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") traced = value == "1";
    else if (flag == "--workdir") workdir = value;
    else if (flag == "--trace-out") trace_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Plan plan;
  if (!MakePlan(workload, &plan) || !(seconds > 0)) {
    std::fprintf(stderr, "usage: perfbench --workload ingest|durable "
                         "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double parallelism = EffectiveParallelism(nproc);

  Tracer tracer;
  RunOptions opts;
  opts.traced = traced;
  opts.tracer = &tracer;
  opts.workdir = workdir;
  opts.lanes = nproc;

  IngestStage ingest(plan.ingest);
  ServedStage served(plan.served);
  DurableStage durable(plan.durable);
  // Set-up runs five times; setup_s is the median.
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t t0 = NowNs();
    ingest.Setup(seed);
    served.Setup(seed);
    durable.Setup(seed, workdir);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  Failures failures;
  const CpuStat stat_start = ReadCpuStat();
  std::vector<Slot> slots = {{&ingest, plan.ingest_share},
                             {&served, plan.served_share},
                             {&durable, plan.durable_share}};
  // A trace run spends half its time untraced, for trace.overhead and the
  // counters that tracing would disturb, and half traced.
  RunPhase(&slots, traced ? seconds / 2 : seconds, opts, false, &failures);
  if (traced) {
    tracer.set_enabled(true);
    RunPhase(&slots, seconds / 2, opts, true, &failures);
    tracer.set_enabled(false);
  }
  const double steal = StealShare(stat_start, ReadCpuStat());
  const StageReport reports[] = {ingest.Report(opts), served.Report(opts),
                                 durable.Report(opts)};

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Metrics e2e, layer;
  e2e["setup_s"] = {Median(setups), "s"};
  e2e["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  double overhead = 0;
  std::string notes;
  for (const StageReport& r : reports) {
    e2e.insert(r.e2e.begin(), r.e2e.end());
    layer.insert(r.layer.begin(), r.layer.end());
    overhead += r.traced_pass_s - r.untraced_pass_s;
    for (const std::string& n : r.notes) {
      notes += (notes.empty() ? "\"" : ", \"") + JsonEscape(n) + "\"";
    }
  }
  if (traced) layer["trace.overhead"] = {overhead, "s"};
  const Metrics& shown = traced ? layer : e2e;
  for (const auto& [name, m] : shown) {
    if (!std::isfinite(m.value)) failures.Count(0, 1, name + " is not finite");
  }
  // Every end-to-end metric is a positive measurement; 0 means a stage
  // produced no sample for it.
  for (const auto& [name, m] : e2e) {
    if (!traced && !(m.value > 0)) {
      failures.Count(0, 1, name + " has no samples");
    }
  }
  if (traced && !trace_out.empty() && !tracer.WriteJson(trace_out)) {
    std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
  }

  const char* commit = std::getenv("PERFBENCH_COMMIT");
  if (commit == nullptr) commit = "unknown";
  std::string failure_notes;
  for (const std::string& n : failures.notes) {
    failure_notes +=
        (failure_notes.empty() ? "\"" : ", \"") + JsonEscape(n) + "\"";
  }
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"env\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"commit\": \"%s\", \"nproc\": %u, \"effective_parallelism\": %s, "
      "\"steal_share\": %s}, "
      "\"attempted\": %llu, \"failed\": %llu, \"failures\": [%s], "
      "\"notes\": [%s], \"spans\": %zu, \"end_to_end\": %s, "
      "\"per_layer\": %s}}\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      JsonNumber(seconds).c_str(), traced ? 1 : 0,
      JsonEscape(PERFBENCH_COMPILER).c_str(),
      JsonEscape(PERFBENCH_FLAGS).c_str(), JsonEscape(commit).c_str(),
      nproc, JsonNumber(parallelism).c_str(), JsonNumber(steal).c_str(),
      static_cast<unsigned long long>(failures.attempted),
      static_cast<unsigned long long>(failures.failed), failure_notes.c_str(),
      notes.c_str(), tracer.size(), MetricsJson(e2e).c_str(),
      MetricsJson(layer).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failures.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(failures.attempted),
              static_cast<unsigned long long>(failures.failed),
              MetricsJson(shown).c_str());
  std::fflush(stdout);
  return failures.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}

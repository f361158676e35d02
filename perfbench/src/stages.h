// The benchmark's three stages (ingest, served, durable) and what they
// share: metric records, failure accounting and run options. Every
// workload runs every stage, so every run reports every metric; the
// workload decides each stage's input size and share of the run's time
// (see main.cc and README.md).
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "generators.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Operations attempted and failed across a run. An oracle mismatch, an
// error reply or an exception each count as failed.
struct Failures {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // the first few failures, for the record

  void Count(uint64_t ops, uint64_t bad, const std::string& what);
};

struct RunOptions {
  bool traced = false;
  Tracer* tracer = nullptr;
  std::string workdir;  // working space for the durable stage
  size_t lanes = 1;     // analytics lanes (nproc)
};

// What one stage reports: end-to-end metrics from its untraced units,
// per-layer metrics (trace runs only), and the wall time one pass of its
// work takes untraced and traced, for trace.overhead.
struct StageReport {
  Metrics e2e;
  Metrics layer;
  double untraced_pass_s = 0;
  double traced_pass_s = 0;
  std::vector<std::string> notes;  // sample counts and settings
};

double Median(std::vector<double> values);
// Nearest-rank percentile of `values`, q in (0, 1].
double Percentile(std::vector<double> values, double q);

// The VM's CPU time from /proc/stat: all of it, and the part the
// hypervisor gave to other guests (steal). Zeros where unavailable.
struct CpuStat {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuStat ReadCpuStat();
double StealShare(const CpuStat& from, const CpuStat& to);

// Timing samples, each tagged with the steal share measured while it was
// taken. While the hypervisor preempts the VM's vCPUs, thread hand-offs
// wait for whole host time slices: served round trips grew tenfold at 10%
// steal. Such samples measure the host, not the program, so statistics
// use only samples taken at no more than kMaxSteal, or, when fewer than a
// quarter qualify, the least-stolen quarter.
constexpr double kMaxSteal = 0.05;

struct Series {
  std::vector<double> values;
  std::vector<double> steal;

  // Tags every sample added since the last call with `share`.
  void Tag(double share) { steal.resize(values.size(), share); }
  void Append(const Series& other);
  std::vector<double> Clean() const;
  double Median() const { return perfbench::Median(Clean()); }
};

// A stage's measured work comes in units (an ingest phase, a served time
// slice, a durable pass). main.cc interleaves the stages' units over
// the whole run, so each stage's samples span the run rather than one
// stretch of it. RunUnit returns the unit's wall time in seconds.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual double RunUnit(const RunOptions& opts, bool traced, Failures* f) = 0;
  // False while a unit sequence that must finish together is under way.
  virtual bool AtBoundary() const { return true; }
  // Unit sequences finished so far (0 for stages whose units stand alone).
  virtual size_t CompletedCycles() const { return 0; }
  virtual StageReport Report(const RunOptions& opts) = 0;
};

class IngestStage final : public Stage {
 public:
  explicit IngestStage(const IngestSpec& spec);
  ~IngestStage() override;
  void Setup(uint64_t seed);
  double RunUnit(const RunOptions& opts, bool traced, Failures* f) override;
  bool AtBoundary() const override;
  size_t CompletedCycles() const override;
  StageReport Report(const RunOptions& opts) override;

 private:
  struct Samples;
  struct Cycle;
  IngestSpec spec_;
  IngestInputs inputs_;
  std::unique_ptr<Samples> samples_;
  std::unique_ptr<Cycle> cycle_;
};

class ServedStage final : public Stage {
 public:
  explicit ServedStage(const ServedSpec& spec);
  ~ServedStage() override;
  // Generates the traffic, starts the server over a preloaded store and
  // connects the clients. Calling it again tears the old ones down first.
  void Setup(uint64_t seed);
  double RunUnit(const RunOptions& opts, bool traced, Failures* f) override;
  StageReport Report(const RunOptions& opts) override;

 private:
  struct Live;
  struct Samples;
  void Start(bool timed_store, Tracer* tracer);
  void Stop();

  ServedSpec spec_;
  std::vector<ServedConnection> conns_;
  std::unique_ptr<Live> live_;
  std::unique_ptr<Samples> samples_;
};

class DurableStage final : public Stage {
 public:
  explicit DurableStage(const DurableSpec& spec);
  ~DurableStage() override;
  void Setup(uint64_t seed, const std::string& workdir);
  double RunUnit(const RunOptions& opts, bool traced, Failures* f) override;
  StageReport Report(const RunOptions& opts) override;

 private:
  struct Samples;
  DurableSpec spec_;
  std::vector<DurableWriter> writers_;
  std::vector<uint64_t> expected_edges_;  // sorted union of final_edges
  std::unique_ptr<Samples> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_

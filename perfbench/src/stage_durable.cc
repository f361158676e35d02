// The durable stage: a DurableStore (group-commit WAL, the default) over a
// ShardedCuckooGraph in a fresh directory per pass. Writer threads send
// fixed-size InsertEdges batches, with some DeleteEdges, on private source
// ranges; every acknowledgement is checked, then the store is closed,
// reopened, and the recovered edge set compared with the oracle.
#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/sharded_cuckoo_graph.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"
#include "stages.h"
#include "timing_store.h"

namespace perfbench {
namespace {

using cuckoograph::ShardedCuckooGraph;
using cuckoograph::persist::DurableOptions;
using cuckoograph::persist::DurableStore;
using cuckoograph::persist::WritableFile;

// Counts the bytes written to every file but the WAL (whose bytes the WAL's
// own stats report): the checkpoint snapshots.
class CountingFile final : public WritableFile {
 public:
  CountingFile(std::unique_ptr<WritableFile> inner,
               std::atomic<uint64_t>* bytes)
      : inner_(std::move(inner)), bytes_(bytes) {}
  ssize_t Write(const void* data, size_t n) override {
    const ssize_t w = inner_->Write(data, n);
    if (w > 0) bytes_->fetch_add(static_cast<uint64_t>(w));
    return w;
  }
  bool Sync() override { return inner_->Sync(); }
  bool Truncate(uint64_t size) override { return inner_->Truncate(size); }
  bool Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<WritableFile> inner_;
  std::atomic<uint64_t>* bytes_;
};

struct WriterResult {
  std::vector<double> ack_ms;
  uint64_t edges = 0;
  uint64_t bad = 0;
  std::string error;
};

struct PassResult {
  double write_s = 0;
  double kedges_per_s = 0;
  double recover_s = 0;
  std::vector<double> ack_ms;
  cuckoograph::persist::DurableStats stats;
  cuckoograph::persist::RecoveryInfo recovery;
  uint64_t snapshot_bytes = 0;
  uint64_t edges = 0;
  double steal = 0;  // host steal share over the pass
};

}  // namespace

struct DurableStage::Samples {
  std::vector<PassResult> plain, traced;
  StoreTimings timings;  // the inner store's calls (traced passes)
  Histogram log_ns;      // DurableStore call minus the store call (traced)
  uint64_t pass_id = 0;
};

DurableStage::DurableStage(const DurableSpec& spec)
    : spec_(spec), samples_(std::make_unique<Samples>()) {}
DurableStage::~DurableStage() = default;

void DurableStage::Setup(uint64_t seed, const std::string& workdir) {
  MakeDurableInputs(spec_, seed, &writers_);
  expected_edges_.clear();
  for (const DurableWriter& w : writers_) {
    expected_edges_.insert(expected_edges_.end(), w.final_edges.begin(),
                           w.final_edges.end());
  }
  std::sort(expected_edges_.begin(), expected_edges_.end());
  // Open and close an empty store once, so set-up covers the persist
  // layer's own start-up (directory, WAL file, recovery scan).
  DurableOptions o;
  o.dir = workdir + "/durable-setup";
  cuckoograph::persist::RemoveDirTree(o.dir);
  std::string error;
  auto store = DurableStore::Open(std::make_unique<ShardedCuckooGraph>(),
                                  "durable", o, &error);
  if (store == nullptr) throw std::runtime_error("durable open: " + error);
  store.reset();
  cuckoograph::persist::RemoveDirTree(o.dir);
}

// One pass: a fresh store in a fresh directory, every writer's batches,
// then a clean close, a timed reopen and the recovered edge set checked.
double DurableStage::RunUnit(const RunOptions& opts, bool traced, Failures* f) {
  Samples& s = *samples_;
  const uint64_t unit_start = NowNs();
  const uint64_t pass_id = ++s.pass_id;
  PassResult r;
  const std::string dir = opts.workdir + "/durable-" + std::to_string(pass_id);
  cuckoograph::persist::RemoveDirTree(dir);
  DurableOptions o;
  o.dir = dir;
  o.sync_mode = cuckoograph::WalSyncMode::kGroup;
  o.checkpoint_every_records = spec_.checkpoint_every_records;
  std::atomic<uint64_t> snapshot_bytes{0};
  std::unique_ptr<cuckoograph::GraphStore> inner =
      std::make_unique<ShardedCuckooGraph>();
  if (traced) {
    inner = std::make_unique<TimingStore>(std::move(inner), &s.timings,
                                          opts.tracer);
    o.file_factory = [&snapshot_bytes](const std::string& path, bool truncate,
                                       std::string* error)
        -> std::unique_ptr<WritableFile> {
      auto file = cuckoograph::persist::OpenWritableFile(path, truncate, error);
      const bool is_wal = path.size() >= 7 &&
                          path.compare(path.size() - 7, 7, "wal.log") == 0;
      if (file == nullptr || is_wal) return file;
      return std::make_unique<CountingFile>(std::move(file), &snapshot_bytes);
    };
  }
  std::string error;
  auto store = DurableStore::Open(std::move(inner), "durable", o, &error);
  if (store == nullptr) throw std::runtime_error("durable open: " + error);

  std::vector<WriterResult> results(writers_.size());
  const CpuStat stat_start = ReadCpuStat();
  const uint64_t start = NowNs();
  {
    ScopedSpan span(opts.tracer, "durable.pass", pass_id << 32, 0);
    std::vector<std::thread> threads;
    for (size_t w = 0; w < writers_.size(); ++w) {
      threads.emplace_back([&, w] {
        WriterResult& out = results[w];
        ThreadTraceContext& ctx = CurrentThreadTrace();
        ctx.tid = static_cast<uint32_t>(w + 1);
        try {
          for (size_t b = 0; b < writers_[w].batches.size(); ++b) {
            const DurableBatch& batch = writers_[w].batches[b];
            const cuckoograph::Span<const Edge> edges(batch.edges);
            ctx.batch_id = (pass_id << 32) | (w << 24) | b;
            ctx.inner_ns = 0;
            const uint64_t t0 = NowNs();
            const size_t got = batch.is_delete ? store->DeleteEdges(edges)
                                               : store->InsertEdges(edges);
            const uint64_t t1 = NowNs();
            out.ack_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            out.edges += batch.edges.size();
            if (got != batch.expected) ++out.bad;
            if (traced) {
              s.log_ns.Record(t1 - t0 - std::min(t1 - t0, ctx.inner_ns));
              opts.tracer->Add(batch.is_delete
                                   ? "persist.DurableStore.DeleteEdges"
                                   : "persist.DurableStore.InsertEdges",
                               ctx.batch_id, pass_id << 32, t0, t1, ctx.tid);
            }
          }
        } catch (const std::exception& e) {
          out.error = std::string("durable: writer failed: ") + e.what();
          ++out.bad;
        }
        ctx = ThreadTraceContext();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  r.write_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const WriterResult& w : results) {
    r.ack_ms.insert(r.ack_ms.end(), w.ack_ms.begin(), w.ack_ms.end());
    r.edges += w.edges;
    f->Count(w.ack_ms.size() + (w.error.empty() ? 0 : 1), w.bad,
             w.error.empty() ? "durable: batch acknowledgement count differs"
                             : w.error);
  }
  r.kedges_per_s = static_cast<double>(r.edges) / r.write_s / 1e3;
  r.stats = store->durable_stats();
  store.reset();  // clean close

  DurableOptions reopen = o;
  reopen.file_factory = nullptr;
  const uint64_t t0 = NowNs();
  auto recovered = DurableStore::Open(std::make_unique<ShardedCuckooGraph>(),
                                      "durable", reopen, &error);
  r.recover_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (recovered == nullptr) {
    throw std::runtime_error("durable reopen: " + error);
  }
  r.recovery = recovered->recovery();
  r.steal = StealShare(stat_start, ReadCpuStat());
  std::vector<uint64_t> got;
  got.reserve(expected_edges_.size());
  recovered->ForEachNode([&](NodeId u) {
    recovered->ForEachNeighbor(u, [&](NodeId v) {
      got.push_back(cuckoograph::EdgeKey(Edge{u, v}));
    });
  });
  std::sort(got.begin(), got.end());
  f->Count(1, got == expected_edges_ ? 0 : 1,
           "durable: recovered edge set differs from the oracle");
  recovered.reset();
  cuckoograph::persist::RemoveDirTree(dir);
  r.snapshot_bytes = snapshot_bytes.load();
  (traced ? s.traced : s.plain).push_back(std::move(r));
  return static_cast<double>(NowNs() - unit_start) / 1e9;
}

StageReport DurableStage::Report(const RunOptions& opts) {
  const Samples& s = *samples_;
  const std::vector<PassResult>& plain = s.plain;
  const std::vector<PassResult>& traced = s.traced;
  StageReport report;
  Series rate, recover, ack_p50, ack_p99;
  std::vector<double> write_s;
  size_t acks = 0;
  for (const PassResult& p : plain) {
    rate.values.push_back(p.kedges_per_s);
    recover.values.push_back(p.recover_s);
    ack_p50.values.push_back(Percentile(p.ack_ms, 0.5));
    ack_p99.values.push_back(Percentile(p.ack_ms, 0.99));
    for (Series* series : {&rate, &recover, &ack_p50, &ack_p99}) {
      series->Tag(p.steal);
    }
    write_s.push_back(p.write_s);
    acks += p.ack_ms.size();
  }
  // Acknowledgement times swing with the shared disk's fsync tail and the
  // hypervisor's steal, past any bound, so they are reported with the
  // per-layer metrics (every run).
  report.e2e["durable_kedges_per_s"] = {rate.Median(), "kedges/s"};
  report.e2e["recover_s"] = {recover.Median(), "s"};
  report.layer["persist.ack_ms_p50"] = {ack_p50.Median(), "ms"};
  report.layer["persist.ack_ms_p99"] = {ack_p99.Median(), "ms"};
  report.untraced_pass_s = Median(write_s);
  report.notes.push_back(
      "durable: " + std::to_string(plain.size()) + " passes (" +
      std::to_string(rate.Clean().size()) + " at low steal) of " +
      std::to_string(writers_.size()) + " writers x " +
      std::to_string(spec_.batches) + " batches x " +
      std::to_string(spec_.batch_edges) + " edges (every " +
      std::to_string(spec_.delete_every) + "th a delete of half as many), "
      "checkpoint_every_records=" +
      std::to_string(spec_.checkpoint_every_records) +
      "; persist.ack_ms_p50 is the median of the passes' medians over " +
      std::to_string(acks) + " batches (median pass p99 " +
      std::to_string(ack_p99.Median()) + " ms)");
  if (!opts.traced) return report;

  std::vector<double> per_sync, checkpoints, replayed, snap_edges;
  std::vector<double> amp, tr_write;
  for (const PassResult& p : plain) {
    per_sync.push_back(static_cast<double>(p.stats.wal.records_appended) /
                       static_cast<double>(
                           std::max<uint64_t>(1, p.stats.wal.syncs)));
    checkpoints.push_back(static_cast<double>(p.stats.checkpoints));
    replayed.push_back(static_cast<double>(p.recovery.replayed_records));
    snap_edges.push_back(static_cast<double>(p.recovery.snapshot_edges));
  }
  for (const PassResult& p : traced) {
    amp.push_back(static_cast<double>(p.stats.wal.bytes_appended +
                                      p.snapshot_bytes) /
                  static_cast<double>(p.edges * sizeof(Edge)));
    tr_write.push_back(p.write_s);
  }
  report.traced_pass_s = Median(tr_write);
  Metrics& m = report.layer;
  const StoreTimings& st = s.timings;
  m["core.sharded.batch_us_p50"] = {
      st.insert_batch_ns.Percentile(0.5) / 1e3, "us"};
  m["core.sharded.batch_us_p99"] = {
      st.insert_batch_ns.Percentile(0.99) / 1e3, "us"};
  m["persist.log_us_p50"] = {s.log_ns.Percentile(0.5) / 1e3, "us"};
  m["persist.log_us_p99"] = {s.log_ns.Percentile(0.99) / 1e3, "us"};
  m["persist.records_per_sync"] = {Median(per_sync), "records"};
  m["persist.checkpoints"] = {Median(checkpoints), "count"};
  m["persist.write_amp"] = {Median(amp), "x"};
  m["persist.recover_replayed_records"] = {Median(replayed), "records"};
  m["persist.recover_snapshot_edges"] = {Median(snap_edges), "edges"};
  return report;
}

}  // namespace perfbench

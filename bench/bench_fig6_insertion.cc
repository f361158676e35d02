// Figure 6: insertion throughput (Mops) of all schemes on the seven
// datasets (Section V-D methodology step 1: insert every edge of the
// arrival stream into an empty structure).
//
// With --durable-dir <dir> a second table prices durability: the same
// insert stream through a DurableStore over CuckooGraph under each
// WalSyncMode, next to the in-memory CuckooGraph baseline. Each cell
// runs in its own subdirectory of <dir> and removes it once the store
// has closed.
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/store_factory.h"
#include "bench_util.h"
#include "common/flags.h"
#include "datasets/datasets.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"

namespace {

using namespace cuckoograph;

struct DurableColumn {
  const char* label;
  WalSyncMode mode;
};

constexpr DurableColumn kDurableColumns[] = {
    {"wal:none", WalSyncMode::kNone},
    {"wal:group", WalSyncMode::kGroup},
    {"wal:always", WalSyncMode::kAlways},
};

bool RunDurableTable(const std::string& durable_dir, double user_scale) {
  std::vector<std::string> columns{"in-memory"};
  for (const DurableColumn& col : kDurableColumns) {
    columns.push_back(col.label);
  }
  bench::PrintHeader(
      "fig6-durable",
      "Insertion throughput with a WAL (Mops, higher is better)", columns);
  for (const std::string& dataset_name : datasets::AllDatasetNames()) {
    const datasets::Dataset dataset =
        bench::MakeBenchDataset(dataset_name, user_scale);
    std::vector<std::string> row{dataset_name};
    {
      auto store = MakeStoreByName("CuckooGraph");
      const bench::BasicTaskResult result =
          bench::RunBasicTasks(*store, dataset, bench::BasicPhase::kInsert);
      row.push_back(bench::FmtMops(result.insert_mops));
    }
    for (const DurableColumn& col : kDurableColumns) {
      persist::DurableOptions opts;
      opts.dir = durable_dir + "/fig6-" + dataset_name + "-" + col.label;
      opts.sync_mode = col.mode;
      persist::RemoveDirTree(opts.dir);  // each cell starts empty
      std::string error;
      auto store = persist::DurableStore::Open(
          MakeStoreByName("CuckooGraph"), "cuckoo-durable", opts, &error);
      if (store == nullptr) {
        std::fprintf(stderr, "FAIL: durable open: %s\n", error.c_str());
        return false;
      }
      const bench::BasicTaskResult result =
          bench::RunBasicTasks(*store, dataset, bench::BasicPhase::kInsert);
      row.push_back(bench::FmtMops(result.insert_mops));
      store.reset();
      persist::RemoveDirTree(opts.dir);
    }
    bench::PrintRow("fig6-durable", row);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double user_scale = flags.GetDouble("scale", 1.0);
  bench::MaybeOpenCsvFromFlags(flags);

  bench::PrintHeader("fig6", "Insertion throughput (Mops, higher is better)",
                     AllSchemeNames());
  for (const std::string& dataset_name : datasets::AllDatasetNames()) {
    const datasets::Dataset dataset =
        bench::MakeBenchDataset(dataset_name, user_scale);
    std::vector<std::string> row{dataset_name};
    for (const std::string& scheme : AllSchemeNames()) {
      auto store = MakeStoreByName(scheme);
      const bench::BasicTaskResult result =
          bench::RunBasicTasks(*store, dataset, bench::BasicPhase::kInsert);
      row.push_back(bench::FmtMops(result.insert_mops));
    }
    bench::PrintRow("fig6", row);
  }

  const std::string durable_dir = flags.GetString("durable-dir", "");
  const bool ok =
      durable_dir.empty() || RunDurableTable(durable_dir, user_scale);

  bench::CloseCsv();
  return ok ? 0 : 1;
}

// Crash-point fault injection for the durability subsystem: a forked
// child is SIGKILLed at injected crash points (mid-TRANSFORMATION,
// post-append-pre-sync, mid-group-commit, around the snapshot rename)
// and the parent recovers the directory against a prefix-consistency
// oracle — the recovered store must equal the deterministic workload
// after exactly k ops, for some k at or past the acknowledged count.
// No acknowledged (synced) write may ever be missing.
//
// The FaultFile sections cover what SIGKILL cannot: short writes,
// ENOSPC mid-frame, bit rot, and tails chopped at every byte offset.
//
// Suite naming is deliberate: the fork-based suites are named *Crash*
// (the TSan CI job must not pick them up — fork and TSan do not mix),
// while the thread-stress suite is named Durable* so the widened TSan
// regex races it.
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/store_factory.h"
#include "core/graph_store.h"
#include "crash_point_harness.h"
#include "gtest/gtest.h"
#include "persist/durable_store.h"
#include "persist/file_io.h"
#include "persist/wal.h"
#include "test_stores.h"

namespace cuckoograph {
namespace {

using persist::DurableOptions;
using persist::DurableStore;

// DurableStore over a fresh instance of the `inner` registry scheme, the
// way an embedding opens it. Throws std::runtime_error on failure.
std::unique_ptr<DurableStore> OpenDurable(const std::string& inner,
                                          const DurableOptions& opts) {
  return test_stores::OpenDurable(MakeStoreByName(inner), inner + "-durable",
                                  opts);
}

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

// ---- Deterministic workload ------------------------------------------------
// Op i is a pure function of i, so the parent can re-derive the exact
// store state after any prefix length. Every 3rd op feeds hub vertex 1
// a fresh neighbor (driving it through TRANSFORMATION at 7 neighbors),
// every 5th op deletes the edge inserted two ops earlier, the rest are
// scattered inserts.

Edge WorkloadEdge(uint64_t i) {
  if (i % 3 == 0) return Edge{1, static_cast<NodeId>(i / 3 + 2)};
  uint64_t h = (i + 1) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 29;
  return Edge{static_cast<NodeId>(h % 64 + 2),
              static_cast<NodeId>((h >> 16) % 512)};
}

bool IsDeleteOp(uint64_t i) { return i % 5 == 4 && i % 3 != 0; }

void ApplyToStore(GraphStore* store, uint64_t i) {
  if (IsDeleteOp(i)) {
    const Edge e = WorkloadEdge(i - 2);
    store->DeleteEdge(e.u, e.v);
  } else {
    const Edge e = WorkloadEdge(i);
    store->InsertEdge(e.u, e.v);
  }
}

void ApplyToModel(EdgeSet* model, uint64_t i) {
  if (IsDeleteOp(i)) {
    const Edge e = WorkloadEdge(i - 2);
    model->erase({e.u, e.v});
  } else {
    const Edge e = WorkloadEdge(i);
    model->insert({e.u, e.v});
  }
}

EdgeSet ModelAfter(uint64_t ops) {
  EdgeSet model;
  for (uint64_t i = 0; i < ops; ++i) ApplyToModel(&model, i);
  return model;
}

EdgeSet StoreEdges(const GraphStore& store) {
  EdgeSet edges;
  store.ForEachNode([&](NodeId u) {
    store.ForEachNeighbor(u, [&](NodeId v) { edges.insert({u, v}); });
  });
  return edges;
}

// The oracle: `recovered` must equal the workload model after exactly k
// ops for some k in [acked, acked + slack]. k may exceed acked because
// an op can be logged (hence replayed) without its ack having landed —
// what recovery must never do is come back BEFORE an acknowledged op.
::testing::AssertionResult PrefixConsistent(const EdgeSet& recovered,
                                            uint64_t acked, uint64_t slack) {
  EdgeSet model = ModelAfter(acked);
  for (uint64_t k = acked; k <= acked + slack; ++k) {
    if (model == recovered) {
      return ::testing::AssertionSuccess() << "matched prefix k=" << k;
    }
    ApplyToModel(&model, k);
  }
  return ::testing::AssertionFailure()
         << "recovered state (" << recovered.size()
         << " edges) matches no workload prefix in [" << acked << ", "
         << acked + slack << "]";
}

// ---- Fork/kill/recover matrix ----------------------------------------------

class CrashPointRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    dir_ = persist::MakeTempDir("crash-recovery-", &error);
    ASSERT_FALSE(dir_.empty()) << error;
  }
  void TearDown() override { persist::RemoveDirTree(dir_); }

  // Opens (or reopens, recovering) the decorator over `inner` in dir_.
  std::unique_ptr<DurableStore> OpenStore(const std::string& inner,
                                          WalSyncMode mode,
                                          size_t checkpoint_every) {
    DurableOptions opts;
    opts.dir = dir_;
    opts.sync_mode = mode;
    opts.checkpoint_every_records = checkpoint_every;
    return OpenDurable(inner, opts);
  }

  // Forks the workload under the armed crash point, asserts the child
  // actually died there, recovers in the parent, and runs the oracle.
  // Returns the recovered store for extra per-point assertions.
  std::unique_ptr<DurableStore> CrashAndRecover(const char* point,
                                                uint64_t kill_on_hit,
                                                const std::string& inner,
                                                WalSyncMode mode,
                                                size_t checkpoint_every) {
    const auto result = testing::RunToCrash(
        point, kill_on_hit, [&](testing::CrashSharedState* shared) {
          auto store = OpenStore(inner, mode, checkpoint_every);
          for (uint64_t i = 0; i < 200'000; ++i) {
            ApplyToStore(store.get(), i);
            shared->acked.store(i + 1, std::memory_order_release);
          }
        });
    EXPECT_TRUE(result.forked);
    EXPECT_TRUE(result.killed)
        << point << " never fired (exit=" << result.exit_status
        << ", hits=" << result.hits << ")";
    if (!result.killed) return nullptr;

    auto recovered = OpenStore(inner, WalSyncMode::kNone, 0);
    EXPECT_TRUE(
        PrefixConsistent(StoreEdges(*recovered), result.acked, 4096))
        << "point=" << point << " hit=" << kill_on_hit
        << " acked=" << result.acked
        << " recovery=" << recovered->recovery().detail;
    return recovered;
  }

  std::string dir_;
};

TEST_F(CrashPointRecoveryTest, KillMidTransformation) {
  // The in-memory structure dies half-transformed; recovery rebuilds
  // purely from the log, so the wreckage is irrelevant.
  CrashAndRecover("core:mid_transformation", 1, "CuckooGraph",
                  WalSyncMode::kAlways, 0);
}

TEST_F(CrashPointRecoveryTest, KillMidTransformationDeep) {
  CrashAndRecover("core:mid_transformation", 3, "CuckooGraph",
                  WalSyncMode::kAlways, 0);
}

TEST_F(CrashPointRecoveryTest, KillPostAppendPreSyncFirstRecord) {
  CrashAndRecover("wal:post_append_pre_sync", 1, "CuckooGraph",
                  WalSyncMode::kAlways, 0);
}

TEST_F(CrashPointRecoveryTest, KillPostAppendPreSyncDeep) {
  CrashAndRecover("wal:post_append_pre_sync", 700, "CuckooGraph",
                  WalSyncMode::kAlways, 0);
}

TEST_F(CrashPointRecoveryTest, KillMidGroupCommit) {
  CrashAndRecover("wal:mid_group_commit", 1, "CuckooGraph",
                  WalSyncMode::kGroup, 0);
}

TEST_F(CrashPointRecoveryTest, KillMidGroupCommitDeep) {
  CrashAndRecover("wal:mid_group_commit", 200, "CuckooGraph",
                  WalSyncMode::kGroup, 0);
}

TEST_F(CrashPointRecoveryTest, KillBeforeSnapshotRename) {
  // Checkpoint died after writing snapshot.tmp but before the rename:
  // no published snapshot exists, recovery replays the intact WAL.
  auto recovered = CrashAndRecover("snapshot:pre_rename", 1, "CuckooGraph",
                                   WalSyncMode::kAlways,
                                   /*checkpoint_every=*/64);
  ASSERT_NE(recovered, nullptr);
  EXPECT_FALSE(recovered->recovery().snapshot_loaded);
  EXPECT_GT(recovered->recovery().replayed_records, 0u);
}

TEST_F(CrashPointRecoveryTest, KillAfterSnapshotRename) {
  // Checkpoint died between publishing the snapshot and truncating the
  // WAL: recovery loads the snapshot and must skip the already-covered
  // WAL records by their LSN instead of double-applying them.
  auto recovered = CrashAndRecover("snapshot:post_rename", 1, "CuckooGraph",
                                   WalSyncMode::kAlways,
                                   /*checkpoint_every=*/64);
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->recovery().snapshot_loaded);
}

TEST_F(CrashPointRecoveryTest, KillSecondCheckpointKeepsNewestSnapshot) {
  auto recovered = CrashAndRecover("snapshot:post_rename", 2, "CuckooGraph",
                                   WalSyncMode::kAlways,
                                   /*checkpoint_every=*/64);
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->recovery().snapshot_loaded);
  // The second checkpoint's snapshot covers more of the log.
  EXPECT_GT(recovered->recovery().snapshot_lsn, 64u);
}

TEST_F(CrashPointRecoveryTest, ShardedSchemeSurvivesTheSameKills) {
  CrashAndRecover("wal:post_append_pre_sync", 300, "cuckoo-sharded",
                  WalSyncMode::kAlways, 0);
}

// ---- FaultFile: the failures SIGKILL cannot produce ------------------------

// A WritableFile shim over the real file that can chop every write into
// tiny chunks (short writes) and run out of space at a byte budget.
class FaultFile final : public persist::WritableFile {
 public:
  FaultFile(std::unique_ptr<persist::WritableFile> base, size_t chunk,
            size_t byte_budget)
      : base_(std::move(base)), chunk_(chunk), budget_(byte_budget) {}

  ssize_t Write(const void* data, size_t n) override {
    if (written_ >= budget_) {
      errno = ENOSPC;
      return -1;
    }
    size_t take = n;
    if (chunk_ > 0) take = std::min(take, chunk_);
    take = std::min(take, budget_ - written_);
    const ssize_t accepted = base_->Write(data, take);
    if (accepted > 0) written_ += static_cast<size_t>(accepted);
    return accepted;
  }

  bool Sync() override { return base_->Sync(); }
  bool Truncate(uint64_t size) override { return base_->Truncate(size); }
  bool Close() override { return base_->Close(); }

 private:
  std::unique_ptr<persist::WritableFile> base_;
  const size_t chunk_;
  const size_t budget_;
  size_t written_ = 0;
};

persist::WritableFileFactory FaultFactory(size_t chunk, size_t byte_budget) {
  return [chunk, byte_budget](const std::string& path, bool truncate,
                              std::string* error)
             -> std::unique_ptr<persist::WritableFile> {
    auto base = persist::OpenWritableFile(path, truncate, error);
    if (base == nullptr) return nullptr;
    return std::make_unique<FaultFile>(std::move(base), chunk, byte_budget);
  };
}

class WalFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    dir_ = persist::MakeTempDir("wal-fault-", &error);
    ASSERT_FALSE(dir_.empty()) << error;
  }
  void TearDown() override { persist::RemoveDirTree(dir_); }

  std::string WalPath() const { return dir_ + "/wal.log"; }

  std::string dir_;
};

TEST_F(WalFaultInjectionTest, ShortWritesStillProduceAValidLog) {
  // 3 bytes per write() splits every frame across many calls;
  // WriteFully must reassemble them losslessly.
  persist::WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(WalPath(), WalSyncMode::kNone, 1,
                          FaultFactory(/*chunk=*/3, /*budget=*/SIZE_MAX),
                          &error))
      << error;
  for (uint64_t i = 0; i < 100; ++i) {
    const Edge e{static_cast<NodeId>(i), static_cast<NodeId>(i + 1)};
    ASSERT_NE(writer.Append(persist::WalOp::kInsertEdges,
                            Span<const Edge>(&e, 1)),
              0u);
  }
  writer.Close();
  persist::WalReadResult contents;
  ASSERT_TRUE(persist::ReadWalFile(WalPath(), &contents, &error)) << error;
  EXPECT_TRUE(contents.clean) << contents.detail;
  ASSERT_EQ(contents.records.size(), 100u);
  EXPECT_EQ(contents.records[41].edges[0].u, 41u);
}

TEST_F(WalFaultInjectionTest, EnospcFailsStickyAndLeavesRecoverablePrefix) {
  DurableOptions opts;
  opts.dir = dir_;
  opts.sync_mode = WalSyncMode::kNone;
  opts.checkpoint_every_records = 0;
  opts.file_factory = FaultFactory(/*chunk=*/0, /*budget=*/777);
  std::string error;
  auto store = DurableStore::Open(MakeStoreByName("CuckooGraph"),
                                  "cuckoo-durable", opts, &error);
  ASSERT_NE(store, nullptr) << error;

  size_t accepted = 0;
  bool threw = false;
  for (NodeId v = 0; v < 1'000; ++v) {
    try {
      store->InsertEdge(1, v);
      ++accepted;
    } catch (const std::runtime_error&) {
      threw = true;
      break;
    }
  }
  ASSERT_TRUE(threw) << "budget never exhausted";
  // Sticky: the store keeps refusing instead of silently dropping
  // durability.
  EXPECT_THROW(store->InsertEdge(2, 2), std::runtime_error);
  store.reset();

  // The torn frame at the budget boundary must be truncated away and
  // every acknowledged edge must survive.
  DurableOptions clean_opts;
  clean_opts.dir = dir_;
  clean_opts.sync_mode = WalSyncMode::kNone;
  auto recovered = DurableStore::Open(MakeStoreByName("CuckooGraph"),
                                      "cuckoo-durable", clean_opts, &error);
  ASSERT_NE(recovered, nullptr) << error;
  EXPECT_TRUE(recovered->recovery().wal_tail_truncated);
  ASSERT_EQ(recovered->NumEdges(), accepted);
  for (NodeId v = 0; v < accepted; ++v) {
    EXPECT_TRUE(recovered->QueryEdge(1, v)) << v;
  }
}

TEST_F(WalFaultInjectionTest, BitFlipTruncatesFromTheFlippedRecord) {
  persist::WalWriter writer;
  std::string error;
  ASSERT_TRUE(
      writer.Open(WalPath(), WalSyncMode::kNone, 1, nullptr, &error))
      << error;
  for (uint64_t i = 0; i < 50; ++i) {
    const Edge e{static_cast<NodeId>(i), 7};
    ASSERT_NE(writer.Append(persist::WalOp::kInsertEdges,
                            Span<const Edge>(&e, 1)),
              0u);
  }
  writer.Close();

  std::string bytes;
  ASSERT_TRUE(persist::ReadFileBytes(WalPath(), &bytes, &error)) << error;
  const size_t frame = bytes.size() / 50;
  const size_t flip_at = frame * 25 + frame / 2;  // inside record 25
  bytes[flip_at] = static_cast<char>(bytes[flip_at] ^ 0x40);
  auto rewrite = persist::OpenWritableFile(WalPath(), true, &error);
  ASSERT_NE(rewrite, nullptr) << error;
  ASSERT_TRUE(persist::WriteFully(rewrite.get(), bytes.data(), bytes.size()));
  rewrite->Close();

  persist::WalReadResult contents;
  ASSERT_TRUE(persist::ReadWalFile(WalPath(), &contents, &error)) << error;
  EXPECT_FALSE(contents.clean);
  ASSERT_EQ(contents.records.size(), 25u);  // exactly the pre-flip prefix
  EXPECT_EQ(contents.valid_bytes, frame * 25);
  for (uint64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(contents.records[i].edges[0].u, i);
  }
}

TEST_F(WalFaultInjectionTest, EveryTruncationPointRecoversThePrefix) {
  // A power cut can chop the unsynced tail at ANY byte. Sweep them all.
  persist::WalWriter writer;
  std::string error;
  ASSERT_TRUE(
      writer.Open(WalPath(), WalSyncMode::kNone, 1, nullptr, &error))
      << error;
  for (uint64_t i = 0; i < 8; ++i) {
    const Edge e{static_cast<NodeId>(i), static_cast<NodeId>(100 + i)};
    ASSERT_NE(writer.Append(persist::WalOp::kInsertEdges,
                            Span<const Edge>(&e, 1)),
              0u);
  }
  writer.Close();
  std::string full;
  ASSERT_TRUE(persist::ReadFileBytes(WalPath(), &full, &error)) << error;
  const size_t frame = full.size() / 8;

  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto rewrite = persist::OpenWritableFile(WalPath(), true, &error);
    ASSERT_NE(rewrite, nullptr) << error;
    ASSERT_TRUE(persist::WriteFully(rewrite.get(), full.data(), cut));
    rewrite->Close();
    persist::WalReadResult contents;
    ASSERT_TRUE(persist::ReadWalFile(WalPath(), &contents, &error))
        << "cut=" << cut << ": " << error;
    const size_t whole_records = cut / frame;
    ASSERT_EQ(contents.records.size(), whole_records) << "cut=" << cut;
    EXPECT_EQ(contents.valid_bytes, whole_records * frame) << "cut=" << cut;
    EXPECT_EQ(contents.clean, cut % frame == 0) << "cut=" << cut;
  }
}

// ---- Group-commit thread stress (the TSan job's target) --------------------

TEST(DurableGroupCommitStressTest, ConcurrentWritersShareSyncsAndRecover) {
  std::string error;
  const std::string dir = persist::MakeTempDir("durable-stress-", &error);
  ASSERT_FALSE(dir.empty()) << error;

  constexpr int kThreads = 4;
  constexpr NodeId kPerThread = 256;
  {
    DurableOptions opts;
    opts.dir = dir;
    opts.sync_mode = WalSyncMode::kGroup;
    auto store = OpenDurable("cuckoo-sharded", opts);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&store, t] {
        for (NodeId v = 0; v < kPerThread; ++v) {
          store->InsertEdge(static_cast<NodeId>(1'000 + t), v);
        }
      });
    }
    for (std::thread& w : writers) w.join();
    const auto stats = store->durable_stats();
    EXPECT_EQ(stats.wal.records_appended,
              static_cast<uint64_t>(kThreads) * kPerThread);
    // Coalescing is load-dependent, but 1024 blocking appends from 4
    // threads cannot all have paid a private fdatasync.
    EXPECT_LT(stats.wal.syncs, stats.wal.records_appended);
    EXPECT_GT(stats.wal.group_commits, 0u);
  }

  DurableOptions reopen;
  reopen.dir = dir;
  reopen.sync_mode = WalSyncMode::kNone;
  auto recovered = OpenDurable("cuckoo-sharded", reopen);
  EXPECT_EQ(recovered->NumEdges(),
            static_cast<size_t>(kThreads) * kPerThread);
  recovered.reset();
  persist::RemoveDirTree(dir);
}

}  // namespace
}  // namespace cuckoograph

// Tuning knobs of the CuckooGraph structure (Section V-B of the paper) and
// the ablation switches used by the Figure 5 / DESIGN.md benches.
#ifndef CUCKOOGRAPH_CORE_CONFIG_H_
#define CUCKOOGRAPH_CORE_CONFIG_H_

#include <cstddef>

namespace cuckoograph {

// When the durability wrapper (persist/durable_store.h) acknowledges a
// mutation relative to the WAL fdatasync covering it.
enum class WalSyncMode {
  // Every append syncs inline before returning: no acknowledged write is
  // ever lost, every op pays a device flush (~120us on this class of
  // hardware).
  kAlways,
  // Group commit: a dedicated thread coalesces every append that arrived
  // while the previous fdatasync ran into one covering sync, and the
  // append returns once that sync lands. Same no-acked-loss guarantee as
  // kAlways; concurrent writers share the flush cost.
  kGroup,
  // Appends return after the buffered write; syncs happen only at
  // checkpoints and clean close. A crash can lose the unsynced tail —
  // recovery still comes back prefix-consistent, just to an older
  // prefix. The Redis appendfsync-no analogue.
  kNone,
};

struct Config {
  // Initial bucket count of the top-level L-CHT. 1 grows the table from
  // its minimum length (the Theorem 1/2 setting); larger values skip the
  // early doublings.
  size_t l_initial_buckets = 16;

  // Initial bucket count of a per-vertex S-CHT chain's first table ("n" in
  // Table II).
  size_t s_initial_buckets = 2;

  // Cells per bucket ("d", Figure 2). Each bucket holds d entries; both
  // candidate buckets are scanned before any kick-out.
  int cells_per_bucket = 8;

  // Maximum kick-out loop length per table ("T", Figure 4). An insertion
  // that exhausts T evictions goes to the denylist (or forces growth).
  int max_kicks = 250;

  // Loading-rate threshold ("G", Figure 3). A table set grows once its
  // occupancy would exceed G of its cells.
  double expand_threshold = 0.9;

  // Maximum number of tables in an S-CHT chain ("R", Table II). Once a
  // chain holds R tables, the next growth merges and doubles instead of
  // appending.
  int max_chain_tables = 3;

  // Denylist capacity per table set. Beyond this, growth is forced.
  int denylist_limit = 8;

  // Ablation: store up to 2R neighbours inline in the vertex cell before
  // TRANSFORMATION allocates an S-CHT chain (DESIGN.md Part 2).
  bool enable_inline_slots = true;

  // Ablation: shrink chains (and collapse them back to inline slots) as
  // deletions reduce a vertex's degree.
  bool enable_reverse_transform = true;

  // Ablation (Figure 5): park kick-out failures in a denylist instead of
  // growing the affected table immediately.
  bool enable_deny_list = true;

  // Shard count of the concurrent front-end (ShardedCuckooGraph): the
  // structure is partitioned by source-vertex hash into this many
  // independent CuckooGraph shards behind per-shard locks. Ignored by the
  // single-threaded CuckooGraph itself. The benches' --shards flag feeds
  // this; docs/PERFORMANCE.md covers selection (2-4x the writer thread
  // count is a good default).
  size_t num_shards = 16;

  // Durability wrapper (persist/durable_store.h) knobs; ignored by the
  // in-memory stores themselves. The sync mode trades acknowledged-write
  // loss against flush cost (see WalSyncMode above).
  WalSyncMode wal_sync_mode = WalSyncMode::kGroup;

  // Checkpoint cadence: after this many WAL records the wrapper dumps a
  // snapshot and truncates the log, bounding replay work at recovery.
  // 0 disables automatic checkpoints (explicit Checkpoint() still works).
  size_t wal_checkpoint_records = 65536;
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_CORE_CONFIG_H_

// One fixed-geometry cuckoo hash table: `num_buckets` buckets of
// `cells_per_bucket` cells, two hash choices per key, random-walk kick-out
// insertion. Shared by the top-level L-CHT (items are vertex entries) and
// the per-vertex S-CHT chain tables (items are neighbour records).
//
// Items must expose `NodeId CuckooKey() const`. Duplicate detection is the
// caller's job (FindSlot before Place); the table itself treats items as
// interchangeable, which keeps kick-out eviction simple: a failed Place
// leaves the last evicted survivor in *item, and since all items are
// equally placeable the caller may park or re-place whichever survivor it
// is handed.
//
// Probing is batched: alongside the cells the table keeps one fingerprint
// byte per cell (0 = empty, a nonzero key-derived byte otherwise), and
// FindSlot / free-cell scans compare a whole bucket's fingerprints per
// probe through simd_probe.h. Only cells whose fingerprint matches are
// verified against the full key, so a probe costs one vector compare plus
// (almost always) at most one key comparison.
//
// Storage: the cells and fingerprints live behind one heap-allocated,
// self-describing Block whose geometry is fixed at construction; only
// cell contents mutate in place. A rebuild builds a fresh table and
// move-assigns it over the old one. The table is not thread-safe: its
// owner serializes every access (ShardedCuckooGraph's stripe locks).
#ifndef CUCKOOGRAPH_CORE_INTERNAL_CUCKOO_TABLE_H_
#define CUCKOOGRAPH_CORE_INTERNAL_CUCKOO_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bob_hash.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/internal/simd_probe.h"

namespace cuckoograph::internal {

inline constexpr size_t kNoSlot = static_cast<size_t>(-1);

// Key -> nonzero fingerprint byte, from a fixed mixer so the same key maps
// to the same fingerprint in every table (the hashes vary per table pair,
// the fingerprint does not).
CUCKOOGRAPH_ALWAYS_INLINE uint8_t KeyFingerprint(NodeId key) {
  uint32_t x = static_cast<uint32_t>(key) * 0x9E3779B1u;
  x ^= x >> 15;
  const uint8_t f = static_cast<uint8_t>(x >> 24);
  return f == 0 ? 1 : f;
}

template <typename Item>
class CuckooTable {
 public:
  // Self-describing storage: geometry plus both arrays behind one
  // pointer. Immutable after construction except for cell contents.
  struct Block {
    Block(size_t buckets, size_t cpb)
        : num_buckets(buckets),
          cells_per_bucket(cpb),
          cells(buckets * cpb),
          fps(buckets * cpb + kBytePadding, 0) {}
    const size_t num_buckets;
    const size_t cells_per_bucket;
    std::vector<Item> cells;
    // One fingerprint byte per cell (0 = empty), padded by kBytePadding
    // so the vector probe may overread past the last bucket.
    std::vector<uint8_t> fps;
    size_t num_cells() const { return cells.size(); }
  };

  CuckooTable(size_t num_buckets, int cells_per_bucket)
      : block_(std::make_unique<Block>(
            num_buckets, static_cast<size_t>(cells_per_bucket))) {}

  CuckooTable(CuckooTable&&) noexcept = default;
  CuckooTable& operator=(CuckooTable&&) noexcept = default;

  size_t num_buckets() const { return block_->num_buckets; }
  size_t num_cells() const { return block_->num_cells(); }
  size_t size() const { return size_; }
  bool full() const { return size_ == block_->num_cells(); }

  Item& cell(size_t slot) { return block_->cells[slot]; }
  const Item& cell(size_t slot) const { return block_->cells[slot]; }
  bool used(size_t slot) const { return block_->fps[slot] != 0; }

  // Returns the slot holding `key`, or kNoSlot.
  size_t FindSlot(NodeId key, const BobHash& h1, const BobHash& h2) const {
    const Block& block = *block_;
    const uint8_t fp = KeyFingerprint(key);
    const size_t b1 = BucketIn(block, h1, key);
    const size_t slot = MatchInBucket(block, b1, fp, key);
    if (slot != kNoSlot) return slot;
    const size_t b2 = BucketIn(block, h2, key);
    if (b2 == b1) return kNoSlot;
    return MatchInBucket(block, b2, fp, key);
  }

  // Places *item, evicting at most max_kicks victims. On success returns
  // true. On failure returns false with the homeless survivor in *item
  // (see the header comment). *kicks is incremented per eviction.
  bool Place(Item* item, const BobHash& h1, const BobHash& h2, int max_kicks,
             SplitMix64* rng, uint64_t* kicks) {
    Block& block = *block_;
    if (full()) return false;
    for (int attempt = 0; attempt <= max_kicks; ++attempt) {
      const NodeId key = item->CuckooKey();
      const size_t b1 = BucketIn(block, h1, key);
      const size_t b2 = BucketIn(block, h2, key);
      const size_t free_slot = FreeCellIn(block, b1, b2);
      if (free_slot != kNoSlot) {
        block.cells[free_slot] = *item;
        block.fps[free_slot] = KeyFingerprint(key);
        ++size_;
        return true;
      }
      if (attempt == max_kicks) break;
      // Kick a random victim out of one of the two candidate buckets.
      const size_t victim_bucket = (attempt & 1) != 0 ? b2 : b1;
      const size_t slot =
          victim_bucket + rng->NextBelow64(block.cells_per_bucket);
      std::swap(*item, block.cells[slot]);
      block.fps[slot] = KeyFingerprint(block.cells[slot].CuckooKey());
      ++*kicks;
    }
    return false;
  }

  void Erase(size_t slot) {
    block_->fps[slot] = 0;
    --size_;
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    const Block& block = *block_;
    for (size_t s = 0; s < block.cells.size(); ++s) {
      if (block.fps[s] != 0) fn(block.cells[s]);
    }
  }

  size_t MemoryBytes() const {
    const Block& block = *block_;
    return sizeof(Block) + block.cells.capacity() * sizeof(Item) +
           block.fps.capacity() * sizeof(uint8_t);
  }

 private:
  CUCKOOGRAPH_ALWAYS_INLINE static size_t BucketIn(const Block& block,
                                                   const BobHash& h,
                                                   NodeId key) {
    return (static_cast<size_t>(h(key)) % block.num_buckets) *
           block.cells_per_bucket;
  }

  // Fingerprint-probes bucket `b`, verifying candidates against the key.
  static size_t MatchInBucket(const Block& block, size_t b, uint8_t fp,
                              NodeId key) {
    uint64_t mask =
        MatchByteMask(block.fps.data() + b, block.cells_per_bucket, fp);
    while (mask != 0) {
      const size_t s = b + static_cast<size_t>(__builtin_ctzll(mask));
      if (block.cells[s].CuckooKey() == key) return s;
      mask &= mask - 1;
    }
    return kNoSlot;
  }

  static size_t FreeCellIn(const Block& block, size_t b1, size_t b2) {
    uint64_t mask =
        MatchByteMask(block.fps.data() + b1, block.cells_per_bucket, 0);
    if (mask != 0) return b1 + static_cast<size_t>(__builtin_ctzll(mask));
    if (b2 != b1) {
      mask = MatchByteMask(block.fps.data() + b2, block.cells_per_bucket,
                           0);
      if (mask != 0) return b2 + static_cast<size_t>(__builtin_ctzll(mask));
    }
    return kNoSlot;
  }

  std::unique_ptr<Block> block_;
  size_t size_ = 0;
};

}  // namespace cuckoograph::internal

#endif  // CUCKOOGRAPH_CORE_INTERNAL_CUCKOO_TABLE_H_

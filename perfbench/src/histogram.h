// Fixed-bucket latency histogram for the benchmark's per-op timings.
//
// Values below 64 land in exact unit buckets; above that each power of two
// is split into 32 equal sub-buckets, so a reported percentile is within
// 1/64 of the true order statistic (the bucket midpoint is returned). The
// bucket array is fixed, recording is one relaxed atomic increment, and
// several threads may record into one histogram at once.
#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per power of two
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxBits = 44;  // values up to ~1.7e13 (4.9 h in ns)
  static constexpr size_t kBuckets =
      2 * kSub + static_cast<size_t>(kMaxBits - kSubBits - 1) * kSub;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    counts_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  // Samples strictly above `threshold` (exact when `threshold` is a bucket
  // boundary, e.g. any value below 64 or a power of two).
  uint64_t CountAbove(uint64_t threshold) const {
    uint64_t total = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (BucketLow(b) > threshold) {
        total += counts_[b].load(std::memory_order_relaxed);
      }
    }
    return total;
  }

  // Nearest-rank percentile, q in (0, 1]: the smallest recorded value with
  // at least q of the samples at or below it, reported as its bucket's
  // midpoint. 0 when empty.
  double Percentile(double q) const {
    const uint64_t n = Count();
    if (n == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n));
    if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b].load(std::memory_order_relaxed);
      if (seen >= rank) {
        const uint64_t lo = BucketLow(b);
        const uint64_t width = BucketLow(b + 1) - lo;
        return static_cast<double>(lo) +
               static_cast<double>(width - 1) / 2.0;
      }
    }
    return static_cast<double>(BucketLow(kBuckets - 1));
  }

  static size_t BucketOf(uint64_t value) {
    if (value < 2 * kSub) return static_cast<size_t>(value);
    const int msb = 63 - __builtin_clzll(value);
    if (msb >= kMaxBits) return kBuckets - 1;
    const int shift = msb - kSubBits;
    const uint64_t sub = (value >> shift) - kSub;  // in [0, kSub)
    return 2 * kSub + static_cast<size_t>(shift - 1) * kSub +
           static_cast<size_t>(sub);
  }

  // Smallest value that lands in bucket `b` (b may be kBuckets, the end).
  static uint64_t BucketLow(size_t b) {
    if (b < 2 * kSub) return b;
    const size_t shift = (b - 2 * kSub) / kSub + 1;
    const uint64_t sub = (b - 2 * kSub) % kSub;
    return (kSub + sub) << shift;
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_

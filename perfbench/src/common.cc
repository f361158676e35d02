#include <algorithm>
#include <cmath>
#include <cstdio>

#include "stages.h"

namespace perfbench {

void Failures::Count(uint64_t ops, uint64_t bad, const std::string& what) {
  attempted += ops;
  failed += bad;
  if (bad != 0 && notes.size() < 8) notes.push_back(what);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

CpuStat ReadCpuStat() {
  CpuStat stat;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return stat;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) stat.total += x;
    stat.steal = v[7];
  }
  std::fclose(f);
  return stat;
}

double StealShare(const CpuStat& from, const CpuStat& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void Series::Append(const Series& other) {
  values.insert(values.end(), other.values.begin(), other.values.end());
  steal.insert(steal.end(), other.steal.begin(), other.steal.end());
}

std::vector<double> Series::Clean() const {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto steal_of = [this](size_t i) {
    return i < steal.size() ? steal[i] : 0.0;
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_of(a) < steal_of(b);
  });
  const size_t quarter = (values.size() + 3) / 4;
  std::vector<double> kept;
  for (const size_t i : order) {
    if (steal_of(i) > kMaxSteal && kept.size() >= quarter) break;
    kept.push_back(values[i]);
  }
  return kept;
}

}  // namespace perfbench

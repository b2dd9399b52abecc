#ifndef DOMD_BENCH_E2E_STATS_H_
#define DOMD_BENCH_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace domd {
namespace bench_e2e {

/// Nearest-rank percentile of an ascending-sorted sample (pct in [0, 100]):
/// the smallest value with at least pct% of the sample at or below it.
/// Returns 0 for an empty sample.
inline double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps exact ranks (50% of 10 = 5) from rounding up.
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9)), 1,
      sorted.size());
  return sorted[rank - 1];
}

/// Nearest-rank median of an unsorted sample (copied).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50);
}

}  // namespace bench_e2e
}  // namespace domd

#endif  // DOMD_BENCH_E2E_STATS_H_

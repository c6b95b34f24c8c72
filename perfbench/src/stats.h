#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of an ascending-sorted
/// sample; NaN when empty. Same definition as numpy's default.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::nan("");
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// A timing summary: the median, and the highest percentile of the ladder
/// {99.9, 99, 95, 90, 75, 50} that has at least ten samples beyond it
/// (a percentile with fewer samples above it is one or two outliers, not a
/// tail). `count` is the sample count every reported number rests on.
struct Percentiles {
  size_t count = 0;
  double p50 = std::nan("");
  /// The supported tail percentile (e.g. 99 for p99); 0 when even the
  /// median has fewer than ten samples beyond it.
  double tail_pct = 0;
  double tail = std::nan("");
};

/// Samples needed beyond a percentile before it is reported.
inline constexpr size_t kMinTailSamples = 10;

/// True when `n` samples leave at least kMinTailSamples beyond `pct`.
inline bool SupportsPercentile(size_t n, double pct) {
  const double beyond = static_cast<double>(n) * (100.0 - pct) / 100.0;
  return beyond + 1e-9 >= static_cast<double>(kMinTailSamples);
}

/// Summarizes `samples` (any order; sorted in place).
inline Percentiles Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  Percentiles p;
  p.count = samples->size();
  p.p50 = SortedQuantile(*samples, 0.5);
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SupportsPercentile(p.count, pct)) {
      p.tail_pct = pct;
      p.tail = SortedQuantile(*samples, pct / 100.0);
      break;
    }
  }
  return p;
}

/// The value at percentile `pct` of an ascending-sorted sample when the
/// sample supports it (at least ten samples beyond), NaN otherwise.
inline double SupportedPercentile(const std::vector<double>& sorted,
                                  double pct) {
  if (!SupportsPercentile(sorted.size(), pct)) return std::nan("");
  return SortedQuantile(sorted, pct / 100.0);
}

/// Median of `v` (copied); NaN when empty.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

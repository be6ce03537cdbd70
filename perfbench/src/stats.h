// Exact order statistics over raw samples. Every latency the benchmark
// reports is computed here from the full sample vector, never from
// histogram buckets.
#ifndef SOFOS_PERFBENCH_STATS_H_
#define SOFOS_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile with the sample count behind it.
struct OrderStat {
  double value = 0.0;
  size_t count = 0;   // samples
  size_t beyond = 0;  // samples strictly ranked above the reported one
  /// The benchmark only publishes a percentile with >= 10 samples beyond it.
  bool supported() const { return count > 0 && beyond >= 10; }
};

/// Sorts `samples` in place and returns the nearest-rank p-quantile
/// (0 < p <= 1): the ceil(p * n)-th smallest sample.
inline OrderStat Percentile(std::vector<double>* samples, double p) {
  OrderStat stat;
  stat.count = samples->size();
  if (samples->empty()) return stat;
  std::sort(samples->begin(), samples->end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples->size())));
  rank = std::min(std::max<size_t>(rank, 1), samples->size());
  stat.value = (*samples)[rank - 1];
  stat.beyond = samples->size() - rank;
  return stat;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

inline double Median(std::vector<double> samples) {
  return Percentile(&samples, 0.5).value;
}

inline double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace perfbench

#endif  // SOFOS_PERFBENCH_STATS_H_

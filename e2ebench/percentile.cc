#include "percentile.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(const std::vector<double>& samples) {
  return NearestRank(samples, 0.5);
}

}  // namespace e2ebench

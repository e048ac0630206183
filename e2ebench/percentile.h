// Order statistics over raw samples.
//
// Percentiles are taken by nearest rank on the sorted samples (the
// smallest sample with at least q·n samples at or below it), so every
// reported percentile is a measured value rather than a histogram bucket
// edge.

#ifndef E2EBENCH_PERCENTILE_H_
#define E2EBENCH_PERCENTILE_H_

#include <cstddef>
#include <vector>

namespace e2ebench {

/// Nearest-rank percentile, q in [0, 1]: the sample of rank ceil(q·n)
/// (rank 1 for q == 0). Returns 0 for an empty sample set.
double NearestRank(std::vector<double> samples, double q);

/// Median by nearest rank: NearestRank(samples, 0.5).
double Median(const std::vector<double>& samples);

}  // namespace e2ebench

#endif  // E2EBENCH_PERCENTILE_H_

// stats.hpp — order statistics the benchmark reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace e2e {

inline double median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The percentile scenario_s_tail reports. It is fixed, so the tail
/// means the same on every workload and commit whatever number of
/// samples fits in a run.
constexpr std::size_t tail_percentile = 90;

/// The 1-based rank of the p-th percentile of n samples by nearest
/// rank: ceil(n p / 100), at least 1.
inline std::size_t nearest_rank(std::size_t n, std::size_t p)
{
    return n == 0 ? 0 : std::max<std::size_t>(1, (n * p + 99) / 100);
}

/// The p-th percentile by nearest rank. Below 100 / (100 - p) samples
/// that is the largest.
inline double percentile(std::vector<double> v, std::size_t p)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    return v[nearest_rank(v.size(), p) - 1];
}

} // namespace e2e

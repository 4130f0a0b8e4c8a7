/**
 * @file
 * Order statistics and ratios used by every benchmark metric.
 *
 * Percentiles use the nearest-rank definition: the p-th percentile of n
 * sorted samples is the sample at 1-based rank ceil(p/100 * n). Under
 * that definition exactly n - rank samples lie beyond it, which is what
 * tailPercentile() counts when it picks the highest percentile a sample
 * set can support.
 */

#ifndef GMX_PERFBENCH_STATS_HH
#define GMX_PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Median (mean of the two middle samples for even n); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2.0;
}

/** 1-based nearest rank of percentile @p p (0 < p <= 100) among n. */
inline size_t
nearestRank(double p, size_t n)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

/** Nearest-rank percentile; 0 when empty. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const size_t k = nearestRank(p, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

/** Samples strictly beyond the nearest-rank percentile @p p of n. */
inline size_t
samplesBeyond(double p, size_t n)
{
    return n == 0 ? 0 : n - nearestRank(p, n);
}

/**
 * The highest percentile of the ladder 50, 90, 99, 99.9, ... that still
 * has at least @p min_beyond samples beyond it; 0 when even the median
 * does not.
 */
inline double
tailPercentile(size_t n, size_t min_beyond = 10)
{
    double best = 0.0;
    for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999})
        if (samplesBeyond(p, n) >= min_beyond)
            best = p;
    return best;
}

/** A ratio that always prints with its base. */
struct Ratio
{
    double num = 0.0;
    double den = 0.0;

    double value() const { return den > 0.0 ? num / den : 0.0; }

    /** e.g. "0.2500 (1/4)". */
    std::string str() const
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.4f (%.0f/%.0f)", value(), num,
                      den);
        return buf;
    }
};

} // namespace perfbench

#endif // GMX_PERFBENCH_STATS_HH

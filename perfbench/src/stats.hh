/**
 * @file
 * Order statistics and failure accounting for the benchmark.
 *
 * A timing is reported as its median plus the highest percentile of
 * a fixed ladder that still has at least ten samples beyond it; with
 * too few samples for any tail the median stands alone.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench
{

/** Samples that lie strictly beyond percentile @p pct of @p n. */
inline std::uint64_t
samplesBeyond(std::uint64_t n, double pct)
{
    const double beyond = static_cast<double>(n) * (100.0 - pct) / 100.0;
    return static_cast<std::uint64_t>(beyond + 1e-9);
}

/**
 * The highest percentile of {99.9, 99, 90} with at least ten of the
 * @p n samples beyond it, or nullopt when even p90 has fewer.
 */
inline std::optional<double>
tailPercentile(std::uint64_t n)
{
    for (const double pct : {99.9, 99.0, 90.0})
        if (samplesBeyond(n, pct) >= 10)
            return pct;
    return std::nullopt;
}

/** Nearest-rank percentile (pct in [0, 100]) of unsorted @p v. */
inline double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = pct / 100.0 * static_cast<double>(v.size());
    std::size_t idx = static_cast<std::size_t>(rank + 0.999999999);
    idx = std::clamp<std::size_t>(idx, 1, v.size());
    return v[idx - 1];
}

/** Median (mean of the middle pair for even counts). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Trials attempted and trials that failed an invariant check. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(std::uint64_t trials, std::uint64_t failed_trials)
    {
        attempted += trials;
        failed += std::min(failed_trials, trials);
    }

    double
    errorRate() const
    {
        return attempted ? static_cast<double>(failed)
                / static_cast<double>(attempted)
                         : 0.0;
    }
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH

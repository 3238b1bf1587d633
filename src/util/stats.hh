/**
 * @file
 * Sample-exact summary statistics used for experiment reporting.
 */

#ifndef VHIVE_UTIL_STATS_HH
#define VHIVE_UTIL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vhive {

/**
 * Collects scalar samples and answers summary queries. Keeps every sample
 * (experiments here produce at most a few million), so percentiles are
 * exact rather than approximated.
 */
class Samples
{
  public:
    /** Record one sample. */
    void add(double v);

    /** Number of recorded samples. */
    std::int64_t count() const { return static_cast<std::int64_t>(data.size()); }

    /** Sum of all samples; 0 when empty. */
    double sum() const;

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Geometric mean; requires all samples > 0; 0 when empty. */
    double geomean() const;

    /** Smallest sample; 0 when empty. */
    double min() const;

    /** Largest sample; 0 when empty. */
    double max() const;

    /** Sample standard deviation; 0 for fewer than two samples. */
    double stddev() const;

    /**
     * Exact percentile by linear interpolation between closest ranks.
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Remove all samples. */
    void clear() { data.clear(); sorted = true; }

    /** Raw access for custom post-processing. */
    const std::vector<double> &values() const { return data; }

  private:
    void ensureSorted() const;

    std::vector<double> data;
    mutable bool sorted = true;
};

} // namespace vhive

#endif // VHIVE_UTIL_STATS_HH

/**
 * @file
 * Test helper: the per-function Cluster::stats() rows summed over a
 * workload's functions. Cluster::invoke counts each completion twice,
 * once in its function's row and once in the fleet-wide FleetStats
 * tally, so the sums are an independent count to check FleetStats
 * against.
 */

#ifndef VHIVE_TESTS_FLEET_SUMS_HH
#define VHIVE_TESTS_FLEET_SUMS_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/fleet_stats.hh"
#include "cluster/traffic.hh"

namespace vhive::cluster {

/** Completion counts summed over Cluster::stats(fn) rows. */
struct FunctionSums
{
    std::int64_t invocations = 0; ///< e2e samples across the rows
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    std::int64_t failedInvocations = 0;
    std::int64_t scaleDowns = 0;
};

inline FunctionSums
sumFunctionStats(const Cluster &c, const std::vector<std::string> &names)
{
    FunctionSums s;
    for (const std::string &n : names) {
        const FunctionClusterStats &st = c.stats(n);
        s.invocations += st.e2eLatencyMs.count();
        s.coldStarts += st.coldStarts;
        s.warmHits += st.warmHits;
        s.failedInvocations += st.failedInvocations;
        s.scaleDowns += st.scaleDowns;
    }
    return s;
}

/** Names of every function @p eng deploys, in population order. */
inline std::vector<std::string>
functionNames(const TrafficEngine &eng)
{
    std::vector<std::string> names;
    for (int i = 0; i < eng.functionCount(); ++i)
        names.push_back(eng.profile(i).name);
    return names;
}

/**
 * The completion identity: every invocation lands in exactly one of
 * cold, warm or failed and leaves one e2e sample, and each fleet-wide
 * term equals its sum over the per-function rows.
 */
inline void
expectCompletionIdentity(const FleetStats &fs, const FunctionSums &rows)
{
    EXPECT_EQ(fs.coldStarts + fs.warmHits + fs.failedInvocations,
              fs.invocations);
    EXPECT_EQ(fs.e2eLatencyMs.count(), fs.invocations);
    EXPECT_EQ(fs.invocations, rows.invocations);
    EXPECT_EQ(fs.coldStarts, rows.coldStarts);
    EXPECT_EQ(fs.warmHits, rows.warmHits);
    EXPECT_EQ(fs.failedInvocations, rows.failedInvocations);
}

} // namespace vhive::cluster

#endif // VHIVE_TESTS_FLEET_SUMS_HH

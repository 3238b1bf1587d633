/**
 * @file
 * The accounting row of one tier of a tiered fallback chain. A leaf
 * header (no sim/ dependency): TieredPageSource and ChunkPageSource
 * emit these rows, and core::LatencyBreakdown and the fleet results
 * carry the same type.
 */

#ifndef VHIVE_MEM_TIER_STATS_HH
#define VHIVE_MEM_TIER_STATS_HH

#include <cstdint>
#include <string>

#include "util/units.hh"

namespace vhive::mem {

/**
 * Which tier served how many reads, how many bytes, and for how long.
 * Plain sources report none; TieredPageSource reports one row per tier.
 */
struct TierStats
{
    std::string label;

    /** Reads served by this tier. */
    std::int64_t hits = 0;

    /** Reads that probed this tier and fell through to a lower one. */
    std::int64_t misses = 0;

    /** Ranges admitted into this tier from a lower tier. */
    std::int64_t admissions = 0;

    /** Bytes served by this tier. */
    Bytes bytes = 0;

    /** Bytes admitted into this tier from below. */
    Bytes bytesAdmitted = 0;

    /** Bytes resident in this tier when the row was sampled. */
    Bytes residentBytes = 0;

    /** High-water mark of bytes resident in this tier. */
    Bytes peakResidentBytes = 0;

    /** Bytes evicted from this tier by budget pressure. */
    Bytes bytesEvicted = 0;

    /** Time spent serving from this tier (source occupancy). */
    Duration time = 0;
};

} // namespace vhive::mem

#endif // VHIVE_MEM_TIER_STATS_HH

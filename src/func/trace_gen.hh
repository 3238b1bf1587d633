/**
 * @file
 * Deterministic guest-memory access-trace synthesis. An invocation's
 * trace is a sequence of contiguous page runs (with interleaved guest
 * compute) drawn from three pools:
 *
 *  - a *stable* pool derived from the function's seed: identical across
 *    invocations (code, imports, guest kernel, gRPC stack) — the
 *    phenomenon REAP exploits (Sec. 4.4);
 *  - an optional *shape-shifted* slice of the stable pool derived from
 *    the input's shape (video_processing's aspect-ratio effect);
 *  - a per-invocation *unique* pool (input buffers, allocator tails).
 *
 * Contiguous-run lengths are geometric with the profile's mean, giving
 * the paper's 2-3 page contiguity (Fig. 3), and the access order is a
 * deterministic shuffle, giving the poor spatial locality that defeats
 * OS readahead (Sec. 4.2).
 */

#ifndef VHIVE_FUNC_TRACE_GEN_HH
#define VHIVE_FUNC_TRACE_GEN_HH

#include <cstdint>
#include <vector>

#include "func/profile.hh"
#include "util/page_set.hh"
#include "util/units.hh"

namespace vhive::func {

/** Which cold-start phase an access run belongs to. */
enum class Phase
{
    ConnectionRestore, ///< gRPC/net-stack pages touched on reconnect
    Processing,        ///< actual function execution
};

/** One contiguous guest-page access with trailing guest compute. */
struct AccessRun
{
    std::int64_t page = 0;     ///< first guest-physical page
    std::int64_t pages = 1;    ///< run length in pages
    Duration computeAfter = 0; ///< guest compute following the access
    Phase phase = Phase::Processing;
    bool stable = true;        ///< belongs to the recurring pool
};

/** A complete per-invocation access trace. */
struct InvocationTrace
{
    std::vector<AccessRun> runs;
    std::int64_t stablePageCount = 0;
    std::int64_t uniquePageCount = 0;

    /** Total pages touched (stable + unique). */
    std::int64_t totalPages() const
    {
        return stablePageCount + uniquePageCount;
    }

    /** Sorted, deduplicated list of touched pages. */
    std::vector<std::int64_t> touchedPages() const;

    /** The touched pages as a bitmap, sized to the highest page. */
    PageSet touchedSet() const;
};

/** Result of comparing the page sets of two invocations (Fig. 5). */
struct ReuseStats
{
    std::int64_t samePages = 0;  ///< accessed by both
    std::int64_t onlyFirst = 0;  ///< accessed only by the first
    std::int64_t onlySecond = 0; ///< accessed only by the second

    /** Fraction of the second invocation's pages seen before. */
    double
    sameFrac() const
    {
        std::int64_t total = samePages + onlySecond;
        return total ? static_cast<double>(samePages) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Compare the page sets of two invocations of the same function. */
ReuseStats comparePageSets(const InvocationTrace &a,
                           const InvocationTrace &b);

/**
 * Mean length of maximal consecutive-page streaks in a sorted page
 * list — the Fig. 3 contiguity metric.
 */
double averageContiguity(const std::vector<std::int64_t> &sorted_pages);

/**
 * Deterministic trace factory. The same (root seed, function,
 * invocation id) triple always yields an identical trace.
 */
class TraceGenerator
{
  public:
    explicit TraceGenerator(std::uint64_t root_seed)
        : rootSeed(root_seed)
    {
    }

    /**
     * Synthesize the access trace of invocation @p invocation_id. The
     * invocation id selects the input (different ids model different
     * inputs; equal ids, identical inputs).
     */
    InvocationTrace invocation(const FunctionProfile &profile,
                               std::int64_t invocation_id) const;

    /**
     * Pages touched when booting the function from scratch (guest
     * kernel boot, agents, runtime init): a superset of the stable
     * pool, padded to the profile's boot footprint.
     */
    InvocationTrace boot(const FunctionProfile &profile) const;

  private:
    std::uint64_t rootSeed;
};

} // namespace vhive::func

#endif // VHIVE_FUNC_TRACE_GEN_HH

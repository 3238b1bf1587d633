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
 *
 * The stable pool depends only on the root seed and the profile, so a
 * generator derives it once per function and keeps it as a compact
 * skeleton (8 bytes per run); each invocation then draws only what
 * its input changes.
 */

#ifndef VHIVE_FUNC_TRACE_GEN_HH
#define VHIVE_FUNC_TRACE_GEN_HH

#include <cstdint>
#include <string>
#include <unordered_map>
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
 * The order left by inserting m items one after another into a
 * sequence of @p n others: item k goes in at index positions[k] of the
 * then n + k long sequence (0 <= positions[k] <= n + k). Returns, for
 * each index of the final n + m long sequence, the item there, or -1
 * for one of the n others, which keep their order. Runs in
 * O(n + m log(n + m)).
 */
std::vector<std::int32_t>
insertionOrder(std::int64_t n, const std::vector<std::int64_t> &positions);

/**
 * Deterministic trace factory. The same (root seed, function,
 * invocation id) triple always yields an identical trace.
 *
 * The generator memoizes each function's stable skeleton, keyed on
 * the function name and every profile field the skeleton reads, so a
 * re-registered profile that changes one of them is rebuilt. The
 * memo makes it unsafe to share one generator between threads.
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
    /** A page run in 8 bytes: first page and length. */
    struct PageRun
    {
        PageRun(std::int64_t first, std::int64_t n)
            : page(static_cast<std::int32_t>(first)),
              pages(static_cast<std::int32_t>(n))
        {
        }

        std::int32_t page;
        std::int32_t pages;
    };

    /** Profile fields a skeleton is derived from (besides the name). */
    struct SkeletonKey
    {
        Bytes vmMemory;
        Bytes workingSet;
        Bytes infraSet;
        double uniqueFrac;
        double contiguityMean;
        double stableDriftFrac;

        bool operator==(const SkeletonKey &) const = default;
    };

    /**
     * The invocation-independent part of a function's traces: the
     * common stable pool split into connection-restore runs and body
     * runs. The body is stored in access order when the profile does
     * not drift; a drifting profile's order depends on its shifted
     * runs, so its body is stored unshuffled.
     */
    struct Skeleton
    {
        SkeletonKey key;
        std::vector<PageRun> infra;
        std::vector<PageRun> body;
        std::int64_t cursorEnd = 0; ///< page past the common pool
    };

    /** The skeleton of @p profile, built on first use or change. */
    const Skeleton &skeleton(const FunctionProfile &profile) const;

    /**
     * Stable body runs of invocation @p invocation_id in access order:
     * the skeleton's body, or, for a drifting profile, the body and
     * the input's shifted runs (placed clear of @p used, and added to
     * it) shuffled into @p scratch.
     */
    const std::vector<PageRun> &
    stableBody(const FunctionProfile &profile, const Skeleton &sk,
               std::int64_t invocation_id, PageSet &used,
               std::vector<PageRun> &scratch) const;

    std::uint64_t rootSeed;
    mutable std::unordered_map<std::string, Skeleton> skeletons;
};

} // namespace vhive::func

#endif // VHIVE_FUNC_TRACE_GEN_HH

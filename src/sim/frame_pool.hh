/**
 * @file
 * Slab-backed size-class allocator for coroutine frames.
 *
 * Every task spawn/join in the simulator used to cost a malloc/free
 * pair for the coroutine frame — the second-hottest kernel cost after
 * the event queue under Orchestrator::invoke, PageFetchPipeline and
 * the cluster layer, all of which churn short-lived tasks. The pool
 * rounds frame sizes up to 64-byte classes and serves them from
 * per-class free lists carved out of 64 KiB slabs, so a steady-state
 * spawn/join cycle is two pointer swaps. Frames larger than
 * kMaxPooled (rare; no task in the tree comes close) fall through to
 * ::operator new.
 *
 * The arena is per-thread (simulations are single-threaded; tests may
 * run sims on several threads) and never freed so frames can be
 * released during any static/thread teardown order; a process-wide
 * list keeps every arena reachable after its thread exits, so leak
 * checkers do not report pool threads' arenas. Free lists are
 * LIFO: the most recently freed frame — still cache-hot — is reused
 * first.
 */

#ifndef VHIVE_SIM_FRAME_POOL_HH
#define VHIVE_SIM_FRAME_POOL_HH

#include <cstddef>
#include <cstdint>

namespace vhive::sim {

class FramePool
{
  public:
    /** Allocation granularity and size-class width, bytes. */
    static constexpr std::size_t kGranule = 64;

    /** Largest frame served from slabs; bigger goes to ::new. */
    static constexpr std::size_t kMaxPooled = 4096;

    /** Bytes carved per slab refill of one size class. */
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    static void *allocate(std::size_t n);
    static void deallocate(void *p, std::size_t n) noexcept;

    /** Per-thread arena counters, for tests and diagnostics. */
    struct Stats {
        std::uint64_t poolAllocs = 0;   ///< allocations served from slabs
        std::uint64_t poolFrees = 0;    ///< frames returned to free lists
        std::uint64_t slabCarves = 0;   ///< slab refills performed
        std::uint64_t slabBytes = 0;    ///< total bytes held in slabs
        std::uint64_t carvedBlocks = 0; ///< blocks ever carved fresh
        std::uint64_t oversized = 0;    ///< fell through to ::operator new

        /**
         * Lower bound on allocations recycled from freed frames: each
         * carved block satisfies at most one allocation for free, so
         * anything past the carved inventory must be a reuse.
         */
        std::uint64_t
        reuses() const
        {
            return poolAllocs > carvedBlocks ? poolAllocs - carvedBlocks
                                             : 0;
        }
    };

    /** Counters of the calling thread's arena. */
    static Stats stats();

    /**
     * False when frames bypass the pool (under AddressSanitizer, so
     * stale-handle use-after-free stays detectable); pool-behavior
     * tests skip themselves in that configuration.
     */
    static bool pooling();

    /** Live pool-served frames on this thread (allocs minus frees). */
    static std::int64_t liveFrames();
};

} // namespace vhive::sim

#endif // VHIVE_SIM_FRAME_POOL_HH

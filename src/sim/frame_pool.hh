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
 * Frames are shared by every thread. Each thread caches at most two
 * slab-sized batches of free blocks per class: the list it allocates
 * from and one full spare. A free that finds both full hands the
 * spare to a process-wide, mutex-guarded depot; an allocation that
 * finds both empty takes a batch from the depot before it carves a
 * new slab. A thread's cache flushes to the depot when the thread
 * exits, and a frame that thread frees afterwards (during its own
 * teardown) goes straight to the depot. So a parallel kernel whose
 * frames are allocated on one pool thread and freed on another, or a
 * fleet whose pool threads exit before the next fleet starts, reuses
 * the same slabs instead of carving new ones per thread.
 *
 * The depot owns every slab and is never freed, so frames can be
 * released during any static/thread teardown order and leak checkers
 * see every slab as live. Free lists are LIFO: the most recently
 * freed frame — still cache-hot — is reused first.
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

    /** Per-thread counters, for tests and diagnostics. */
    struct Stats {
        std::uint64_t poolAllocs = 0;   ///< allocations served from slabs
        std::uint64_t poolFrees = 0;    ///< frames returned to free lists
        std::uint64_t slabBytes = 0;    ///< bytes of slabs this thread carved
        std::uint64_t carvedBlocks = 0; ///< blocks ever carved fresh
    };

    /** Counters of the calling thread. */
    static Stats stats();

    /** Bytes of every slab carved so far, by any thread. */
    static std::uint64_t processSlabBytes();

    /**
     * False when frames bypass the pool (under AddressSanitizer, so
     * stale-handle use-after-free stays detectable); pool-behavior
     * tests skip themselves in that configuration.
     */
    static bool pooling();

    /**
     * Pool allocations minus pool frees made on this thread: its live
     * frames, when no other thread frees them.
     */
    static std::int64_t liveFrames();
};

} // namespace vhive::sim

#endif // VHIVE_SIM_FRAME_POOL_HH

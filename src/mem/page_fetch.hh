/**
 * @file
 * PageFetchPipeline: the one place snapshot pages move through on the
 * way into guest memory. A pipeline binds a PageSource to a fetch
 * shape:
 *
 *  - fetchContiguous(): one bulk read of a contiguous range (REAP's
 *    single WS-file read, the WS-file page-cached fetch, or a remote
 *    bulk GET).
 *  - fetchAndInstallPages(): N strided workers issuing page-sized
 *    reads and installing each page via UFFDIO_COPY as it lands (the
 *    ParallelPageFaults design point, Sec. 5.2 / Fig. 7).
 *  - fetchWindowed(): the range split into fixed-size windows with a
 *    bounded number in flight — N concurrent ranged GETs against the
 *    object store's per-stream bandwidth model, the remote fetch
 *    sweet-spot knob the ROADMAP's batching item calls for. With
 *    windowBytes == 0 the window is sized adaptively: an AIMD
 *    controller grows the window additively while per-GET request
 *    overhead dominates the observed service time and halves it when
 *    a GET takes far longer than its own history predicts (stream
 *    queueing), converging on the sweet spot without knowing the
 *    store's rtt/bandwidth up front.
 *
 * Loaders pick a source + shape instead of open-coding I/O, so a new
 * cold-start design point is a new composition, not orchestrator
 * surgery.
 */

#ifndef VHIVE_MEM_PAGE_FETCH_HH
#define VHIVE_MEM_PAGE_FETCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/guest_memory.hh"
#include "mem/page_source.hh"
#include "mem/uffd.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::mem {

/**
 * AIMD controller constants for the adaptive windowed fetch
 * (fetchWindowed with windowBytes == 0).
 */
struct AdaptiveWindowParams
{
    /** First (and smallest) window probed. */
    Bytes minWindow = 64 * kKiB;

    /** Largest window the controller will grow to. */
    Bytes maxWindow = 4 * kMiB;

    /** Additive increase per completed GET while overhead-bound. */
    Bytes increment = 128 * kKiB;

    /**
     * Stop growing once this fraction of a GET's observed time is
     * spent streaming (the rest being the per-request rtt + service
     * overhead). 0.65 lands the converged window in the sweet-spot
     * band bench_tiered_window_sweep maps for the remote defaults.
     */
    double efficiencyTarget = 0.65;

    /** Multiplicative decrease factor on congestion. */
    double decreaseFactor = 0.5;

    /**
     * A GET slower than this multiple of the model-predicted service
     * time is read as stream queueing -> multiplicative decrease.
     */
    double congestionFactor = 1.8;
};

/** Pipeline accounting, readable by loaders and benches. */
struct PageFetchStats
{
    std::int64_t contiguousFetches = 0;
    std::int64_t pageFetches = 0;
    std::int64_t windowedFetches = 0;

    /** Windows issued across all windowed fetches. */
    std::int64_t windowsIssued = 0;

    /** Adaptive (windowBytes == 0) fetches performed. */
    std::int64_t adaptiveFetches = 0;

    /** Background-priority fetches performed (fetchBackground). */
    std::int64_t backgroundFetches = 0;

    /** Window size the last adaptive fetch converged on. */
    Bytes convergedWindowBytes = 0;

    Bytes bytesFetched = 0;

    /**
     * @name Hedged-request accounting (fixed-window fetches with a
     * hedge delay configured; see setHedgeDelay). bytesFetched counts
     * each logical byte once; hedgedBytes is the extra wire traffic
     * the duplicate GETs caused, so a remote-only source's store-side
     * bytesServed equals bytesFetched + hedgedBytes.
     */
    /// @{

    /** Duplicate window GETs issued after the hedge delay expired. */
    std::int64_t hedgesIssued = 0;

    /** Hedges whose duplicate landed before the original GET. */
    std::int64_t hedgeWins = 0;

    /** Bytes requested by the duplicate GETs (wasted wire traffic). */
    Bytes hedgedBytes = 0;
    /// @}

    /**
     * Per-tier accounting snapshot from the source (empty unless the
     * source is a TieredPageSource). Invariant: the per-tier byte
     * counts sum to bytesFetched when all traffic is tiered.
     */
    std::vector<TierStats> tiers;
};

/**
 * Moves ranges of a PageSource toward guest memory in a chosen shape.
 * A pipeline is cheap to construct per cold start.
 */
class PageFetchPipeline
{
  public:
    PageFetchPipeline(sim::Simulation &sim, PageSource &source)
        : sim(sim), source(source)
    {
    }

    PageFetchPipeline(const PageFetchPipeline &) = delete;
    PageFetchPipeline &operator=(const PageFetchPipeline &) = delete;

    /**
     * One bulk read of [offset, offset+len). Every fetch shape takes
     * an optional @p out: when non-null it receives the elapsed fetch
     * time, measured from first byte requested to last byte landed —
     * usable from an overlapped task whose caller cannot time it.
     */
    sim::Task<void> fetchContiguous(Bytes offset, Bytes len,
                                    Duration *out = nullptr);

    /**
     * Windowed shape: [offset, offset+len) split into @p windowBytes
     * ranges with at most @p inFlight concurrent source reads (ranged
     * GETs on a remote source). windowBytes == 0 sizes windows
     * adaptively (AIMD from observed per-GET rtt/bandwidth; see
     * adaptiveParams()); degenerates to fetchContiguous() when
     * windowBytes is negative or covers the whole range. Moves exactly
     * the same bytes as fetchContiguous() for any (windowBytes,
     * inFlight).
     */
    sim::Task<void> fetchWindowed(Bytes offset, Bytes len,
                                  Bytes windowBytes, int inFlight,
                                  Duration *out = nullptr);

    /**
     * Background-priority shape: the AIMD-sized windows of the
     * adaptive fetch, but strictly sequential (one in flight) with a
     * @p pace pause between windows. Moves exactly the same bytes as
     * fetchContiguous(); used by background working-set warming and
     * schedule-driven chunk prefetch, where yielding store streams to
     * foreground cold starts matters more than fetch latency.
     */
    sim::Task<void> fetchBackground(Bytes offset, Bytes len,
                                    Duration pace,
                                    Duration *out = nullptr);

    /** AIMD constants of the adaptive windowed shape. */
    const AdaptiveWindowParams &adaptiveParams() const { return adaptive; }

    /**
     * Hedge fixed-size windowed fetches against tail stragglers: a
     * window GET still in flight @p d after issue gets a duplicate
     * GET raced against it, and the window completes on whichever
     * lands first. Loser legs are drained before the fetch returns
     * (they overlap later windows instead of serializing them), and
     * their wire bytes are accounted in stats().hedgedBytes. 0 (the
     * default) disables hedging; the fetch path is then bit-identical
     * to builds without hedging.
     */
    void setHedgeDelay(Duration d) { hedgeDelay = d; }

    /**
     * ParallelPageFaults shape: @p workers strided tasks issue one
     * page-sized source read per entry of @p pages, pay the
     * UFFDIO_COPY cost, and mark the page present in @p guest.
     */
    sim::Task<void>
    fetchAndInstallPages(const std::vector<std::int64_t> &pages,
                         int workers, UserFaultFd &uffd,
                         GuestMemory &guest);

    const PageFetchStats &stats() const { return _stats; }

  private:
    /** One strided worker of fetchAndInstallPages. */
    sim::Task<void>
    pageWorker(const std::vector<std::int64_t> &pages, size_t begin,
               size_t stride, UserFaultFd &uffd, GuestMemory &guest);

    /** First-leg-lands race of one hedged window (shared by legs). */
    struct WindowRace;

    /**
     * One strided worker of fetchWindowed. Hedge legs are spawned
     * through @p legs, which the fetch drains after its workers so no
     * leg outlives the pipeline.
     */
    sim::Task<void> windowWorker(Bytes offset, Bytes len,
                                 Bytes windowBytes, std::int64_t begin,
                                 std::int64_t stride, sim::Latch *legs);

    /** One window read, hedged with a delayed duplicate GET. */
    sim::Task<void> hedgedRead(Bytes off, Bytes n, sim::Latch *legs);

    /** One racing GET (primary or the hedge) of a hedged window. */
    sim::Task<void> hedgeLeg(Bytes off, Bytes n,
                             std::shared_ptr<WindowRace> race,
                             bool hedge);

    /** Issues the duplicate GET when the primary outlives the delay. */
    sim::Task<void> hedgeTimer(Bytes off, Bytes n,
                               std::shared_ptr<WindowRace> race,
                               sim::Latch *legs);

    /** Shared state of one adaptive fetch's AIMD controller. */
    struct AdaptiveState;

    /** The adaptive (windowBytes == 0) fetch body. */
    sim::Task<void> fetchAdaptive(Bytes offset, Bytes len,
                                  int inFlight);

    /** One in-flight GET of the adaptive fetch. */
    sim::Task<void> adaptiveWorker(Bytes offset, Bytes len,
                                   AdaptiveState *st);

    /** Refresh the per-tier snapshot after a fetch completed. */
    void snapshotTiers() { _stats.tiers = source.tierStats(); }

    sim::Simulation &sim;
    PageSource &source;
    PageFetchStats _stats;
    static constexpr AdaptiveWindowParams adaptive{};

    /** Hedge delay for fixed-size windowed fetches (0 = off). */
    Duration hedgeDelay = 0;
};

} // namespace vhive::mem

#endif // VHIVE_MEM_PAGE_FETCH_HH

/**
 * @file
 * Cold-start mode selection and REAP tuning knobs, plus the latency
 * breakdown structure the experiments report (Figs. 2, 7, 8).
 */

#ifndef VHIVE_CORE_OPTIONS_HH
#define VHIVE_CORE_OPTIONS_HH

#include <cstdint>
#include <vector>

#include "mem/tier_stats.hh"
#include "storage/eviction.hh"
#include "util/units.hh"

namespace vhive::core {

/**
 * How the orchestrator starts a function with no warm instance
 * (Sec. 3.2 "several modes for cold function invocations" and the
 * Fig. 7 design walk).
 */
enum class ColdStartMode
{
    /** Boot a new VM from the root filesystem (no snapshot). */
    BootFromScratch,

    /** Vanilla Firecracker snapshots: lazy kernel paging (Sec. 2.3). */
    VanillaSnapshot,

    /**
     * Fig. 7 design point 2: use the trace file to fetch working-set
     * pages with parallel page-sized reads.
     */
    ParallelPageFaults,

    /**
     * Fig. 7 design point 3: fetch the compact WS file with one
     * buffered read (through the page cache).
     */
    WsFileCached,

    /** Full REAP: single O_DIRECT WS-file read + eager install. */
    Reap,

    /**
     * Sec. 7.1: REAP with the snapshot artifacts held in remote
     * disaggregated object storage. The VMM state and WS file arrive
     * as bulk object GETs over the datacenter network instead of local
     * disk reads; residual faults are still served locally from the
     * guest-memory snapshot image.
     */
    RemoteReap,

    /**
     * REAP over a tiered fallback chain (host page cache -> local SSD
     * -> remote object store) with warm-tier admission and a windowed
     * remote fetch shape (N in-flight ranged GETs). The Sec. 7.1
     * remote-placement design space as a first-class mode: a fresh
     * worker pays the remote path once, then serves later cold starts
     * from the tiers the fetch populated.
     */
    TieredReap,

    /**
     * TieredReap with the remote tier replaced by a content-addressed
     * chunk transfer: artifacts are split into fixed-size chunks keyed
     * by content hash ("How Low Can You Go?", arXiv:2109.13319),
     * staged into the store once per *distinct chunk* rather than once
     * per function, fetched as batched ranged GETs of their compressed
     * sizes, and served locally when any earlier cold start — of any
     * function — already pulled them into the worker's chunk cache.
     */
    DedupReap,

    /**
     * Background working-set warming (the Sec. 6.3 follow-on): the
     * TieredReap/DedupReap fetch path at background priority —
     * sequential AIMD windows, paced, one in flight — so warming
     * traffic yields fabric headroom to foreground cold starts. Used
     * directly as a mode, and by the control plane as the pre-warm
     * vehicle: an invocation arriving mid-warm waits for the warm to
     * finish (a partially-warmed start) instead of paying a full cold
     * path.
     */
    BackgroundWarm,
};

/** Human-readable mode name. */
const char *coldStartModeName(ColdStartMode mode);

/** Per-invocation options. */
struct InvokeOptions
{
    /** Keep the instance warm after the invocation. */
    bool keepWarm = false;

    /** Start a fresh instance even if a warm one exists. */
    bool forceCold = false;

    /**
     * Input selector; -1 draws the next input in sequence.
     * Distinct ids model distinct inputs (Sec. 4.4).
     */
    std::int64_t inputId = -1;

    /**
     * Flush the host page cache first — the paper's cold-start
     * methodology (Sec. 4.1) simulating long inter-invocation gaps.
     */
    bool flushPageCache = false;

    /**
     * Pre-warm: run the full cold-start path (restore + WS install)
     * but do not serve an invocation — the instance is left warm and
     * idle for a later request. Set by the control plane's pre-warm
     * actions; implies the invocation counters are not bumped.
     */
    bool warmupOnly = false;
};

/** REAP mechanism knobs (ablation points; defaults match the paper). */
struct ReapOptions
{
    /** Fetch the WS file with O_DIRECT (Sec. 5.2.3). */
    bool bypassPageCache = true;

    /** Pages installed per UFFDIO_COPY call during eager install. */
    std::int64_t installBatchPages = 64;

    /**
     * Issue the WS-file fetch concurrently with VMM-state restoration
     * (off by default: the paper's Fig. 7 segments are additive).
     */
    bool overlapFetchWithVmmLoad = false;

    /** Worker goroutines for the ParallelPageFaults design point. */
    int parallelPfWorkers = 16;

    /**
     * Sec. 7.2 adaptive policy: when the fraction of residual faults
     * exceeds the threshold, re-record the working set on the next
     * cold invocation.
     */
    bool adaptiveRerecord = false;
    double rerecordThreshold = 0.5;

    /**
     * Sec. 7.3 mitigation: re-randomize the guest memory placement
     * while installing the working set, defeating cross-clone ASLR
     * leakage. Costs extra per-page guest page-table rewrites during
     * the eager install.
     */
    bool rerandomizeLayout = false;

    // ------------------------------------------------ TieredReap knobs

    /** Include the page-cache tier in the fallback chain. */
    bool tieredPageCacheTier = true;

    /** Include the local-SSD tier in the fallback chain. */
    bool tieredLocalTier = true;

    /**
     * Model the first tiered cold start on a worker holding no local
     * artifact copy (cross-worker sharing via the store): staging
     * invalidates the local tiers, so the first fetch pays the remote
     * path and re-populates them through admission.
     */
    bool tieredFreshWorker = true;

    /**
     * Window size for the tiered WS fetch. 0 = adaptive: the pipeline
     * AIMD-sizes windows from observed per-GET rtt/bandwidth
     * (PageFetchPipeline's adaptive mode); -1 = one bulk read.
     */
    Bytes tieredWindowBytes = 1 * kMiB;

    /** Concurrent windows in flight during the tiered WS fetch. */
    int tieredInFlight = 4;

    /**
     * Warm-tier admission threshold: a remotely served range is
     * admitted into the local tiers only on its Nth remote serve.
     * 1 (default) admits on first touch — the historical behaviour;
     * higher values keep one-shot ranges from polluting local tiers.
     */
    int admitAfterHits = 1;

    /**
     * Hedged-request straggler mitigation for the prefetch-family WS
     * fetch: a window GET still in flight this long after issue gets
     * a duplicate GET raced against it, and the window proceeds on
     * whichever lands first (see PageFetchPipeline::setHedgeDelay).
     * 0 (default) disables hedging — the historical fetch path,
     * bit-identical to builds without it.
     */
    Duration hedgeAfter = 0;

    // ------------------------------------------------- DedupReap knobs

    /** Chunk size of the content-addressed artifact layer. */
    Bytes chunkBytes = 64 * kKiB;

    /** Transfer chunks compressed (decompression charged on arrival). */
    bool chunkCompression = true;

    /**
     * Fraction of full chunks shared with the fleet-wide runtime-page
     * pool (identical bytes across functions). ~30-50% matches the
     * cross-function redundancy reported for language runtimes.
     */
    double chunkDupRatio = 0.35;

    // ----------------------------------------- Cache-economics knobs

    /**
     * Byte budget of the host page-cache warm tier (tiered chains).
     * 0 (default) = unlimited — the historical behaviour. Enforced
     * worker-wide at page granularity.
     */
    Bytes pageCacheBudget = 0;

    /**
     * Byte budget of the local-SSD artifact tier: total bytes of
     * locally-held snapshot artifacts across functions. 0 = unlimited.
     * Enforced at function-artifact granularity (evicting a victim
     * function's local copy, as evictLocalArtifacts does).
     */
    Bytes ssdBudget = 0;

    /**
     * Byte budget (stored/compressed bytes) of the worker's resident
     * chunk cache (DedupReap). 0 = unlimited.
     */
    Bytes chunkCacheBudget = 0;

    /** Victim selection for every budgeted worker cache. */
    storage::EvictionPolicyKind evictionPolicy =
        storage::EvictionPolicyKind::Lru;
};

/** Per-invocation latency decomposition at the orchestrator level. */
struct LatencyBreakdown
{
    Duration loadVmm = 0;     ///< spawn + VMM/device state restore
    Duration connRestore = 0; ///< gRPC session + guest infra faults
    Duration processing = 0;  ///< request + function execution
    Duration fetchWs = 0;     ///< prefetch read (REAP/WsFile/ParPF)
    Duration installWs = 0;   ///< eager UFFDIO_COPY install
    Duration total = 0;       ///< end-to-end at the orchestrator

    bool cold = false;        ///< true if a new instance was started
    bool recordPhase = false; ///< true if this invocation recorded
    bool crashed = false;     ///< injected WorkerCrash tore this cold
                              ///< start down; total counts lost work
    bool preWarmHit = false;  ///< served warm by a pre-warmed instance
                              ///< on its first use (control plane)

    std::int64_t majorFaults = 0;    ///< faults taken by the instance
    std::int64_t residualFaults = 0; ///< monitor-served faults after
                                     ///< eager install (REAP modes)
    std::int64_t prefetchedPages = 0;
    std::int64_t wastedPrefetch = 0; ///< prefetched but never touched

    /**
     * Per-tier WS-fetch accounting; populated only by loaders whose
     * PageSource is a tiered fallback chain.
     */
    std::vector<mem::TierStats> tierHits;
};

} // namespace vhive::core

#endif // VHIVE_CORE_OPTIONS_HH

/**
 * @file
 * What the two fleet engines, the sequential Cluster and ParallelFleet
 * on the parallel kernel, share: the FleetConfig base of their
 * configs, validated by checkFleetConfig() before either builds
 * anything, and FleetStats, the one result both report.
 *
 * FleetStats aggregates what the SeBS methodology (arXiv:2012.14132)
 * says a serverless benchmark must report at fleet level — cold-start
 * latency percentiles (p50/p99/p999) rather than single-host means,
 * per-worker and fleet-summed tier-hit accounting, object-store
 * stream contention, resident memory, and the snapshot-registry
 * staging counters. Cluster::fleetStats() builds it on demand,
 * ParallelFleet::run() returns it.
 */

#ifndef VHIVE_CLUSTER_FLEET_STATS_HH
#define VHIVE_CLUSTER_FLEET_STATS_HH

#include <cstdint>
#include <vector>

#include "cluster/control_policy.hh"
#include "cluster/routing_policy.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "net/object_store.hh"
#include "net/sharded_store.hh"
#include "storage/eviction.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace vhive::cluster {

/** Fleet settings both engines read with the same meaning. */
struct FleetConfig
{
    /** Configuration applied to every worker (see workerConfig). */
    core::WorkerConfig worker{};

    /**
     * Idle-instance lifetime before deallocation (Sec. 2.1: providers
     * use 8-20 minutes; default 10).
     */
    Duration keepAlive = sec(600);

    /** How the workers start cold instances. */
    core::ColdStartMode coldStartMode = core::ColdStartMode::Reap;

    /** Autoscaler reconciliation (keep-alive sweep) period. */
    Duration scalePeriod = sec(2);

    /** Which RoutingPolicy the front-end dispatches through. */
    RoutingPolicyKind routingPolicy = RoutingPolicyKind::WarmFirst;

    /**
     * Which predictive ControlPolicy runs (pre-warming, chunk
     * prefetch, scale hints): each scalePeriod in Cluster's janitor,
     * each controlPeriod in ParallelFleet's control domain. None
     * (default) spawns no control machinery at all, bit-identical to
     * the historical behaviour.
     */
    ControlPolicyKind controlPolicy = ControlPolicyKind::None;

    /**
     * Cross-worker snapshot sharing (Sec. 7.1 at fleet scale): build
     * each function's snapshot once on its home worker, stage the
     * artifacts into one fleet-shared object store, and let every
     * other worker cold-start through the remote tier instead of
     * rebuilding. Requires a remote-capable cold-start mode
     * (TieredReap, RemoteReap or DedupReap). Off by default:
     * per-worker staging, bit-identical to the historical behaviour.
     */
    bool sharedSnapshots = false;

    /** Per-shard parameters of the shared store (sharedSnapshots). */
    net::ObjectStoreParams sharedStore = net::ObjectStoreParams::remote();

    /**
     * Shards behind the fleet-shared store (sharedSnapshots; >= 1).
     * Each shard has its own stream bound and stats; 1 keeps the
     * historical single-store behaviour bit-identical.
     */
    int sharedStoreShards = 1;

    /** How chunk uploads spread across shards (DedupReap staging). */
    net::ChunkPlacementPolicy chunkPlacement =
        net::ChunkPlacementPolicy::Hash;

    /**
     * Byte budget of the fleet staged-chunk index (sharedSnapshots +
     * DedupReap; 0 = unlimited, the historical behaviour). Chunks a
     * live manifest references are never evicted; the zero-ref pool
     * retirement and restaging leave behind is what budget pressure
     * reclaims. Worker-side budgets (page cache, chunk cache, local
     * SSD) live in `worker.reap`.
     */
    Bytes registryChunkBudget = 0;

    /** Victim selection for the budgeted fleet chunk index. */
    storage::EvictionPolicyKind registryEvictionPolicy =
        storage::EvictionPolicyKind::Lru;

    /**
     * Worker @p w's configuration: `worker` with its own seed stream
     * (distinct page layouts do not matter, but determinism across
     * runs does).
     */
    core::WorkerConfig workerConfig(int w) const;

    /** Parameters of the sharded fleet-shared store. */
    net::ShardedStoreParams sharedStoreParams() const;
};

/**
 * Reject a configuration @p engine cannot build with a clean fatal()
 * (exit code 1) naming the problem: fewer than one worker, store
 * shard or sim thread, or sharedSnapshots over a cold-start mode that
 * cannot stage remotely. Both engines call it before they build
 * anything, so no store, worker or kernel thread exists yet.
 */
void checkFleetConfig(const char *engine, const FleetConfig &cfg,
                      int workers, int sim_threads = 1);

/** One worker's slice of the fleet telemetry. */
struct WorkerFleetRow
{
    int worker = 0;
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;

    /** Deepest concurrent in-flight load this worker ever carried. */
    std::int64_t inFlightPeak = 0;

    /** Resident instance memory at collection time. */
    Bytes residentBytes = 0;

    /** Summed LatencyBreakdown::tierHits of this worker's colds. */
    std::vector<core::TierBreakdown> tierHits;

    /** Summed LatencyBreakdown::wastedPrefetch of this worker's
     * colds — WS pages prefetched but not touched by the served
     * input (Sec. 6.2 record/replay input-drift waste). */
    std::int64_t wastedPrefetchPages = 0;
};

/**
 * What one fleet run reports: the result of both engines,
 * Cluster::fleetStats() and ParallelFleet::run(). Each field's comment
 * ends with the engine that fills it, [both], [Cluster] or
 * [ParallelFleet]; a field its engine does not fill stays zero.
 */
struct FleetStats
{
    int workers = 0; ///< worker hosts [both]

    std::int64_t invocations = 0; ///< completed, incl. failed [both]
    std::int64_t coldStarts = 0;  ///< served by a cold start [both]
    std::int64_t warmHits = 0;    ///< served warm [both]
    std::int64_t scaleDowns = 0;  ///< scale-to-zero sweeps [both]

    /** End-to-end latency of every invocation, in completion order
     * (ms). [ParallelFleet] */
    Samples e2eLatencyMs;

    /** End-to-end latency of every cold start across the fleet (ms). [both] */
    Samples coldE2eMs;

    /** End-to-end latency of every warm hit across the fleet (ms). [both] */
    Samples warmE2eMs;

    std::int64_t eventsProcessed = 0; ///< kernel events [ParallelFleet]
    std::int64_t windows = 0;  ///< kernel sync windows [ParallelFleet]
    std::int64_t messages = 0; ///< cross-domain [ParallelFleet]

    /** Resident instance memory summed across workers. [Cluster] */
    Bytes residentBytes = 0;

    std::vector<WorkerFleetRow> perWorker; ///< [Cluster]

    /** Per-tier accounting summed across workers. [Cluster] */
    std::vector<core::TierBreakdown> tierHits;

    /**
     * Object-store traffic: the shared store when snapshot sharing is
     * on, otherwise the per-worker stores summed. streamWaits /
     * streamWaitTime / peakStreamQueue expose data-plane contention.
     * [both; ParallelFleet with sharedSnapshots only]
     */
    net::ObjectStoreStats store{};

    /**
     * Per-shard rows of the shared store, in shard order (empty when
     * snapshot sharing is off). The summed `store` field above and
     * these rows agree by construction: mergeStoreStats over the rows
     * reproduces the aggregate. [both]
     */
    std::vector<net::ObjectStoreStats> storeShards;

    /**
     * @name Warm-pool waste accounting (the denominator of every
     * keep-alive / pre-warm policy comparison): how much memory sat
     * resident without serving.
     */
    /// @{

    /**
     * Byte-seconds of instance memory held by idle warm instances,
     * integrated by the autoscaler each scalePeriod. This is the
     * resource bill of a keep-alive/pre-warm policy; the control
     * frontier weighs it against cold p99. [Cluster]
     */
    double wastedResidentByteSec = 0;

    /** Instance-seconds spent idle-warm (same integration). [Cluster] */
    double idleWarmInstanceSec = 0;

    /** Fleet sum of per-worker wastedPrefetchPages. [Cluster] */
    std::int64_t wastedPrefetchPages = 0;
    /// @}

    /** @name Predictive control plane (zero when the policy is None). */
    /// @{

    /** Pre-warm loads completed across the fleet. [both] */
    std::int64_t preWarms = 0;

    /** Invocations served by a pre-warmed (or mid-warm) instance. [both] */
    std::int64_t preWarmHits = 0;

    /** Pre-warmed instances retired without ever serving. [Cluster] */
    std::int64_t wastedPreWarms = 0;

    /** Background chunk/artifact prefetches that moved bytes. [both] */
    std::int64_t bgPrefetches = 0;
    /// @}

    /** @name Snapshot staging (ParallelFleet: sharedSnapshots only). */
    /// @{
    std::int64_t snapshotBuilds = 0; ///< [both]
    Bytes stagedBytes = 0;           ///< uploaded by staging [both]
    std::int64_t remoteArtifactFetches = 0; ///< [both]
    std::int64_t fetchFanIn = 0;     ///< [Cluster]
    /// @}

    /** @name Content-addressed staging (DedupReap + shared mode). */
    /// @{

    /** Raw artifact bytes described by all staged manifests. [Cluster] */
    Bytes chunkLogicalBytes = 0;

    /** Distinct compressed bytes resident in the staged index. [Cluster] */
    Bytes chunkStoredBytes = 0;

    /** Upload bytes avoided because the chunk was already staged. [both] */
    Bytes dedupSavedBytes = 0;

    /** Distinct chunks in the staged index. [Cluster] */
    std::int64_t chunksStored = 0;

    std::int64_t chunksUploaded = 0; ///< by staging [ParallelFleet]

    /** addRef()s deduplicated against an already-staged chunk. [both] */
    std::int64_t chunksDeduped = 0;
    /// @}

    /**
     * @name Cache & storage economics: byte budgets, delta
     * re-staging and fleet GC (all zero with budgets off and no
     * restage/retire — the historical behaviour).
     */
    /// @{

    /** High-water mark of the staged index's compressed bytes. [both] */
    Bytes fleetChunkPeakBytes = 0;

    /** Chunks budget pressure evicted from the staged index. [both] */
    std::int64_t fleetChunkBudgetEvictions = 0;

    /** Worker page-cache peak resident bytes, summed. [both] */
    Bytes pageCachePeakBytes = 0;

    /** Worker page-cache bytes shed by budget pressure, summed. [both] */
    Bytes pageCacheEvictedBytes = 0;

    /** Worker chunk-cache peak stored bytes, summed. [both] */
    Bytes workerChunkPeakBytes = 0;

    /** Worker chunk-cache budget evictions, summed. [both] */
    std::int64_t workerChunkBudgetEvictions = 0;

    /** Local-SSD artifact copies evicted by ssdBudget, summed. [both] */
    std::int64_t ssdEvictions = 0;

    /** Peak local artifact bytes, summed across workers. [both] */
    Bytes peakSsdBytes = 0;

    /** Delta re-stagings completed (restageFunction). [Cluster] */
    std::int64_t restages = 0;

    /** Chunks delta re-staging uploaded — the churn that moved. [Cluster] */
    std::int64_t deltaChunksUploaded = 0;

    /** Compressed bytes those delta uploads moved. [Cluster] */
    Bytes deltaBytesUploaded = 0;

    /** Functions retired fleet-wide (retireFunction). [Cluster] */
    std::int64_t retires = 0;

    /** Stored bytes GC reclaimed from the staged index. [Cluster] */
    Bytes gcReleasedBytes = 0;
    /// @}

    /**
     * Fraction of staged compressed bytes that never crossed the wire
     * thanks to dedup (0 when staging is not chunked).
     */
    double
    dedupRatio() const
    {
        Bytes total = dedupSavedBytes + stagedBytes;
        return total > 0 ? static_cast<double>(dedupSavedBytes) /
                               static_cast<double>(total)
                         : 0.0;
    }

    /** Share of served invocations that started cold. */
    double
    coldFraction() const
    {
        auto total = coldStarts + warmHits;
        return total ? static_cast<double>(coldStarts) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double coldP50() const { return coldE2eMs.percentile(50); }
    double coldP99() const { return coldE2eMs.percentile(99); }
    double coldP999() const { return coldE2eMs.percentile(99.9); }

    /**
     * FNV-1a fingerprint over every simulated quantity ParallelFleet
     * fills (per-sample latency bit patterns in arrival order,
     * counters, event totals). Two runs are bit-identical iff digests
     * match; the determinism suite asserts equality across thread
     * counts.
     */
    std::uint64_t digest() const;
};

/**
 * Merge one tier row into @p into, keyed by tier label (same label ->
 * counters summed; new label -> appended in arrival order).
 */
void mergeTierRow(std::vector<core::TierBreakdown> &into,
                  const core::TierBreakdown &row);

/** Sum @p b's request/byte/contention counters into @p a. */
void mergeStoreStats(net::ObjectStoreStats &a,
                     const net::ObjectStoreStats &b);

/**
 * Sum one worker's cache & storage economics (page-cache, chunk-cache
 * and local-SSD peaks and evictions) into @p fs. Both engines fold
 * every worker through it.
 */
void addWorkerEconomics(FleetStats &fs, const core::Orchestrator &orch);

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_FLEET_STATS_HH

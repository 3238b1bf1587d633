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
#include <string>
#include <vector>

#include "cluster/control_policy.hh"
#include "cluster/routing_policy.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "net/object_store.hh"
#include "net/sharded_store.hh"
#include "sim/task.hh"
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
     * prefetch, scale hints), ticking every scalePeriod: in Cluster's
     * janitor, and in ParallelFleet's control-plane domain against the
     * mirrored fleet view, where its predictions, like routing, trail
     * worker reality by one fabric hop and stay bit-identical across
     * sim thread counts. There, Pre-warm and Prefetch actions travel
     * to workers as tracked requests (a Prefetch is shielded until the
     * predicted window by the prefetch-pinned eviction policy);
     * ScaleHint is Cluster-only. None (default) spawns no control
     * machinery at all, bit-identical to the historical behaviour.
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

    /**
     * Shards behind the fleet-shared store (sharedSnapshots; >= 1).
     * Each shard is a net::ObjectStoreParams::remote() store with its
     * own stream bound and stats; 1 keeps the historical single-store
     * behaviour bit-identical.
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
     * reclaims, least recently used first. Worker-side budgets (page
     * cache, chunk cache, local SSD) live in `worker.reap`.
     */
    Bytes registryChunkBudget = 0;

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

/** One worker's slice of the fleet telemetry, in both engines (see
 * addWorkerFold): cold/warm counts and tier rows kept by its serving
 * path, the idle-waste integrals and scaleDowns by its janitor. */
struct WorkerFleetRow
{
    int worker = 0;
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;

    std::int64_t scaleDowns = 0; ///< scale-to-zero sweep steps

    /** Resident instance memory at collection time. */
    Bytes residentBytes = 0;

    /** Summed LatencyBreakdown::tierHits of this worker's colds. */
    std::vector<mem::TierStats> tierHits;

    /** This worker's share of the FleetStats idle-waste integrals. */
    double wastedResidentByteSec = 0;
    double idleWarmInstanceSec = 0;

    /** Count one served invocation, cold (with its tier rows) or
     * warm; a crashed attempt counts in neither. */
    void note(const core::LatencyBreakdown &bd);

    /** Integrate @p orch's idle warm memory over one janitor tick of
     * @p dt. Pure arithmetic: no event, no suspension. */
    void noteIdle(const core::Orchestrator &orch, Duration dt);
};

/**
 * What one fleet run reports: the result of both engines,
 * Cluster::fleetStats() and ParallelFleet::run(). Each field's comment
 * ends with the engine that fills it, [both], [Cluster] or
 * [ParallelFleet]; a field its engine does not fill stays zero. The
 * [Cluster] ones need registry-side fetch notes (fetchFanIn) or a
 * control -> store message flow (restage/retire counters).
 */
struct FleetStats
{
    int workers = 0; ///< worker hosts [both]

    /**
     * @name Completion accounting. Every invocation lands in exactly
     * one of coldStarts, warmHits or failedInvocations, and adds one
     * e2eLatencyMs sample.
     */
    /// @{
    std::int64_t invocations = 0; ///< completed, incl. failed [both]
    std::int64_t coldStarts = 0;  ///< served by a cold start [both]
    std::int64_t warmHits = 0;    ///< served warm [both]

    /** Reported failed after exhausting crash retries (Cluster under
     * a WorkerCrash plan; ParallelFleet has no failure path). [both] */
    std::int64_t failedInvocations = 0;

    /** End-to-end latency of every invocation, in completion order
     * (ms). [both] */
    Samples e2eLatencyMs;

    /** End-to-end latency of every cold start across the fleet (ms). [both] */
    Samples coldE2eMs;

    /** End-to-end latency of every warm hit across the fleet (ms). [both] */
    Samples warmE2eMs;

    /** Count one completed invocation of end-to-end latency @p e2e:
     * failed when its crash retries ran out, else cold or warm. The
     * only writer of the fields above, in both engines. */
    void noteInvocation(Duration e2e, bool cold, bool failed = false);
    /// @}

    std::int64_t scaleDowns = 0;  ///< scale-to-zero sweeps [both]

    std::int64_t eventsProcessed = 0; ///< kernel events [ParallelFleet]
    std::int64_t windows = 0;  ///< kernel sync windows [ParallelFleet]
    std::int64_t messages = 0; ///< cross-domain [ParallelFleet]

    /** Resident instance memory summed across workers. [both] */
    Bytes residentBytes = 0;

    std::vector<WorkerFleetRow> perWorker; ///< in worker order [both]

    /** Per-tier accounting summed across workers. [both] */
    std::vector<mem::TierStats> tierHits;

    /**
     * Object-store traffic: the shared store when snapshot sharing is
     * on, otherwise the per-worker stores summed. streamWaits /
     * streamWaitTime / peakStreamQueue expose data-plane contention.
     * [both]
     */
    net::ObjectStoreStats store{};

    /**
     * Per-shard rows of the shared store, in shard order (empty when
     * snapshot sharing is off). The summed `store` field above and
     * these rows agree by construction: net::mergeStoreStats over the rows
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
     * integrated by each worker's janitor every scalePeriod. This is
     * the resource bill of a keep-alive/pre-warm policy; the control
     * frontier weighs it against cold p99. [both]
     */
    double wastedResidentByteSec = 0;

    /** Instance-seconds spent idle-warm (same integration). [both] */
    double idleWarmInstanceSec = 0;
    /// @}

    /** @name Predictive control plane (zero when the policy is None). */
    /// @{

    /** Pre-warm loads completed across the fleet. [both] */
    std::int64_t preWarms = 0;

    /** Invocations served by a pre-warmed (or mid-warm) instance. [both] */
    std::int64_t preWarmHits = 0;

    /** Pre-warmed instances retired without ever serving. [both] */
    std::int64_t wastedPreWarms = 0;

    /** Background chunk/artifact prefetches that moved bytes. [both] */
    std::int64_t bgPrefetches = 0;
    /// @}

    /** @name Snapshot staging (sharedSnapshots, but snapshotBuilds). */
    /// @{
    std::int64_t snapshotBuilds = 0; ///< [both]
    Bytes stagedBytes = 0;           ///< uploaded by staging [both]

    /** Cold starts that pulled staged artifacts remotely. [both], two
     * sources: Cluster notes them in the registry, which also gives
     * fetchFanIn and forgets a retired function's fetches;
     * ParallelFleet counts on the worker (its registry is in the store
     * domain). */
    std::int64_t remoteArtifactFetches = 0;
    std::int64_t fetchFanIn = 0;     ///< [Cluster]
    /// @}

    /** @name Content-addressed staging (DedupReap + shared mode). */
    /// @{

    /** Raw artifact bytes described by all staged manifests. [both] */
    Bytes chunkLogicalBytes = 0;

    /** Distinct compressed bytes resident in the staged index. [both] */
    Bytes chunkStoredBytes = 0;

    /** Upload bytes avoided because the chunk was already staged. [both] */
    Bytes dedupSavedBytes = 0;

    /** Distinct chunks in the staged index. [both] */
    std::int64_t chunksStored = 0;

    std::int64_t chunksUploaded = 0; ///< by staging [both]

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

    /**
     * FNV-1a fingerprint over ParallelFleet's simulated outcomes:
     * per-sample latency bit patterns in arrival order, counters and
     * store traffic. The field list is fixed so pinned digests hold:
     * the staged-index sizes it gained from the registry fold
     * (chunkLogicalBytes, chunkStoredBytes, chunksStored) stay out.
     * The kernel-work fields (eventsProcessed, windows, messages) stay
     * out too, so a kernel change that removes events but moves no
     * outcome leaves this hash unchanged.
     */
    std::uint64_t outcomeDigest() const;

    /**
     * outcomeDigest() folded with the kernel-work fields. Two runs are
     * bit-identical iff digests match; the determinism suite asserts
     * equality across thread counts.
     */
    std::uint64_t digest() const;
};

/**
 * Merge one tier row into @p into, keyed by tier label (same label ->
 * counters summed; new label -> appended in arrival order).
 */
void mergeTierRow(std::vector<mem::TierStats> &into,
                  const mem::TierStats &row);

/**
 * Fold worker @p w and its @p row into @p fs: both engines call it
 * once per worker, in worker order, after the run. Adds the row, the
 * worker's resident bytes and its orchestrator's pre-warm, prefetch
 * and cache counters; without @p shared staging, also its snapshot
 * builds, delta re-staging counters and own store's traffic.
 */
void addWorkerFold(FleetStats &fs, int w, const core::Worker &worker,
                   const WorkerFleetRow &row, bool shared);

/** The keep-alive check of one (worker, function) sweep step: @p orch
 * idles @p name, last used @p keep_alive or longer before @p now. Pure:
 * an unexpired step costs no coroutine frame and no event. */
bool keepAliveExpired(const core::Orchestrator &orch,
                      const std::string &name, Time last_used, Time now,
                      Duration keep_alive);

/** Stop @p orch's idle instances of @p name (busy ones finish); true,
 * and one scale-down in @p row, when any stopped. */
sim::Task<bool> scaleDownIdle(core::Orchestrator &orch,
                              const std::string &name,
                              WorkerFleetRow &row);

/** Pre-warm @p name on @p orch for cold-start @p mode; true only when
 * an instance came up, so a no-op or crashed pre-warm leaves the
 * caller's keep-alive stamp alone. */
sim::Task<bool> preWarmInstance(core::Orchestrator &orch,
                                const std::string &name,
                                core::ColdStartMode mode);

/** The snapshot a ControlPolicy ticks against at @p now: @p tally's
 * cold counts and one view per function of @p names, in the engine's
 * order, read from @p fleet (live orchestrators or the mirror). */
ControlTickContext controlTickSnapshot(const FleetView &fleet,
                                       const FleetStats &tally, Time now,
                                       const std::vector<std::string> &names);

class SnapshotRegistry;

/**
 * Sum @p reg's staging records and staged-chunk index into @p fs:
 * builds, staged and chunk counters, delta re-staging, GC, and the
 * fetches the front-end noted. Both engines fold their registry
 * through it, so the same staging reports the same numbers.
 */
void addRegistryStaging(FleetStats &fs, const SnapshotRegistry &reg);

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_FLEET_STATS_HH

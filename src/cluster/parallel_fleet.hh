/**
 * @file
 * Multi-core fleet simulation: the Azure-mix fleet scenario of
 * bench_fleet_cold_p99, sharded over a sim::ParallelKernel so each
 * worker host simulates on its own core.
 *
 * Domain layout: domain 0 is the control plane (front-end router,
 * arrival synthesis, autoscaler bookkeeping mirror); domains 1..W are
 * worker hosts, each owning a full core::Worker (disk, stores,
 * orchestrator, uffd). All cross-domain interaction flows through two
 * CrossPorts per worker (invoke requests down, completion/scale
 * notices up), both with the cluster fabric-hop latency — which is
 * also the kernel's lookahead, so a window spans one fabric hop of
 * simulated time.
 *
 * Relation to cluster::Cluster: same worker model, same Azure mix
 * (cluster::synthesizeAzureMix), same fabric-hop request shape
 * (request hop + worker-side invoke + response hop), same keep-alive
 * scale-to-zero policy. The control plane routes on a *mirrored* view
 * of worker warm/in-flight state that trails reality by one fabric
 * hop — exactly what a distributed front-end would see — so absolute
 * results differ slightly from the sequential Cluster's omniscient
 * router; what the parallel kernel guarantees is that results are
 * bit-identical across thread counts (threads = 1 is the reference),
 * which tests/test_parallel.cc locks with digest().
 *
 * Shared data plane (sharedSnapshots): the fleet-shared
 * SnapshotRegistry semantics and the artifact ObjectStore run in their
 * own kernel domain (index workers + 1). Workers reach the store
 * through typed request/reply CrossPorts: a per-worker StorePortClient
 * implements net::ArtifactStore by shipping each operation to the
 * store domain and waiting for the reply, so loaders and page sources
 * work unchanged. Staging is build-once and uses the sequential
 * Cluster's two halves: each function's home worker (same ring hash as
 * LocalityHashPolicy) runs buildForStaging and ships the build as a
 * Stage message; the store domain owns the SnapshotRegistry and runs
 * its store-side pass (outage stall, crash-retry upload —
 * chunk-deduplicated under DedupReap, sharded by
 * net::ShardedObjectStore — and the staging counters), then
 * broadcasts Adopt metadata, sharing the immutable build plus the
 * chunk shard placements logged since the previous Adopt, to every
 * worker. Workers signal Ready only after adopting the whole
 * population, so traffic never races staging. All of it flows
 * through ports, so digests stay bit-identical across sim thread
 * counts.
 *
 * Without sharedSnapshots every mode — including RemoteReap and
 * DedupReap — runs per-worker (each worker stages into its own store,
 * domain-confined), as the non-shared Cluster does.
 *
 * Traffic: cfg.traffic switches arrivals from the closed-loop Azure
 * mix to the open-loop TrafficEngine (Zipf populations, diurnal
 * modulation, burst events). Open-loop arrivals do not wait for
 * completions, so flash crowds genuinely pile onto the shared store;
 * the control plane drains in-flight requests before shutdown.
 */

#ifndef VHIVE_CLUSTER_PARALLEL_FLEET_HH
#define VHIVE_CLUSTER_PARALLEL_FLEET_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/azure_workload.hh"
#include "cluster/control_policy.hh"
#include "cluster/fleet_stats.hh"
#include "cluster/routing_policy.hh"
#include "cluster/snapshot_registry.hh"
#include "cluster/traffic.hh"
#include "core/worker.hh"
#include "net/sharded_store.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "util/stats.hh"

namespace vhive::cluster {

/** Configuration of a parallel fleet run. */
struct ParallelFleetConfig : FleetConfig
{
    /** Worker hosts (= worker domains). */
    int workers = 4;

    /** Threads the kernel runs domains on (wall-clock only). */
    int simThreads = 1;

    /** The Azure mix to synthesize and drive (closed loop). */
    AzureWorkloadConfig workload{};

    /**
     * When set, arrivals come from the TrafficEngine instead of the
     * Azure mix: the engine's profiles are deployed and driven
     * open-loop (burst events overlap in flight). The workload field
     * above is then ignored.
     */
    std::optional<TrafficConfig> traffic;

    /**
     * The fleet's fault plan, one immutable value read by every
     * domain: installed on each worker's object store
     * ("store/worker/<w>") and, with sharedSnapshots, on the shared
     * store ("store/shared[/<s>]") and the registry's staging passes
     * ("staging/<fn>": StagingOutage stalls, WorkerCrash rollback), as
     * a plan installed on Cluster is. Draws are keyed by request, so
     * results are the same for any simThreads. Cold-start crashes
     * ("worker/<w>") are not wired here. An empty plan (the default)
     * rolls nothing: fault-free, bit-identical to no plan.
     */
    sim::FaultPlan faults;
};

/** Older name of the parallel engine's result, kept for callers. */
using ParallelFleetResult = FleetStats;

/**
 * Builds the domains, wires the ports, runs the workload, aggregates.
 * One-shot: construct, run(), read the result.
 */
class ParallelFleet
{
  public:
    explicit ParallelFleet(ParallelFleetConfig config);
    ~ParallelFleet();

    ParallelFleet(const ParallelFleet &) = delete;
    ParallelFleet &operator=(const ParallelFleet &) = delete;

    /**
     * Run the fleet to completion on the configured thread count.
     * Blocking host call (not a coroutine): drives the parallel
     * kernel until every domain is quiescent.
     */
    FleetStats run();

    const sim::ParallelKernel::Stats &kernelStats() const
    {
        return kernel.stats();
    }

    /** What auditPlacements() compared. */
    struct PlacementAudit {
        /** (worker, chunk) pairs checked. */
        std::int64_t checked = 0;

        /** Pairs whose worker-side shard differs from the store's. */
        std::int64_t disagreeing = 0;
    };

    /**
     * After run(): compare, for every worker and every chunk of every
     * manifest it adopted, the shard the worker's store client groups
     * the chunk under with the shard the shared store routes it to.
     * The Adopt deltas make them agree (see AdoptPayload::placements),
     * so disagreeing is zero; both counts are zero without
     * sharedSnapshots or chunked staging.
     */
    PlacementAudit auditPlacements() const;

    /** Worker @p w's orchestrator; after run(), its final state. */
    const core::Orchestrator &orchestrator(int w) const;

  private:
    /** Control -> worker commands. */
    struct WorkerMsg {
        enum Kind { Invoke, Shutdown } kind = Invoke;
        std::int64_t reqId = 0;
        int fnIdx = 0;

        /** Invoke only: control-plane pre-warm, not an invocation. */
        bool preWarm = false;

        /** Invoke only: background tier-cache prefetch, no instance. */
        bool prefetch = false;

        /** Prefetch only: shield the bytes until then (-1 = none). */
        Time pinUntil = -1;
    };

    /** Worker -> control notices. */
    struct ControlMsg {
        enum Kind { Ready, Done, ScaledDown, Bye } kind = Ready;
        std::int64_t reqId = 0;
        int fnIdx = 0;
        bool cold = false;

        /** Done of a pre-warm request (not an invocation). */
        bool preWarm = false;

        /** Worker's idle-instance count for fnIdx after the event. */
        std::int64_t idleNow = 0;

        /** Done of a background prefetch request. */
        bool prefetch = false;

        /**
         * Worker's chunk residency for fnIdx after the event
         * (Done replies; -1 = not reported). Feeds the control
         * plane's mirrored residency, which decides future Prefetch
         * actions — one fabric hop stale, like every mirror field.
         */
        double chunkResidency = -1;
    };

    /** A home worker's build, shipped to the store domain. */
    struct StagePayload {
        int fnIdx = 0;
        StagedBuild build;
    };

    /** Worker -> store-domain requests. */
    struct StoreMsg {
        enum Kind { Op, Stage, Bye } kind = Op;
        enum OpKind { Get, GetRange, Put, PutChunk, GetChunks } op = Get;
        std::int64_t reqId = 0;
        Bytes a = 0; ///< bytes (Get/Put/PutChunk), offset (GetRange)
        Bytes b = 0; ///< bytes (GetRange), stored bytes (GetChunks)
        std::int64_t chunks = 0;
        net::PlacementKey key{};
        std::shared_ptr<const StagePayload> stage;
    };

    /** Staged metadata the store domain fans out to every worker. */
    struct AdoptPayload {
        /** The home worker's build, shared as shipped. */
        std::shared_ptr<const StagePayload> stage;

        /**
         * The store's placement log (content hash -> shard) since the
         * previous Adopt. Placements never change once logged, and
         * every chunk of this build is placed before its Adopt is
         * sent, so a worker that inserts every delta it receives
         * answers shardOf() for each adopted chunk as the store does.
         */
        std::vector<std::pair<std::uint64_t, int>> placements;
    };

    /** Store-domain -> worker replies. */
    struct StoreReply {
        enum Kind { OpDone, Adopt, Bye } kind = OpDone;
        std::int64_t reqId = 0;
        std::shared_ptr<AdoptPayload> adopt;
    };

    struct WorkerNode;

    /**
     * The worker-side face of the shared store: a net::ArtifactStore
     * whose five operations each travel as a StoreMsg over the
     * worker's toStore port and suspend until the store domain's
     * OpDone reply — so loaders and page sources use the fleet store
     * exactly like a local one, paying two fabric hops per request.
     */
    class StorePortClient final : public net::ArtifactStore
    {
      public:
        StorePortClient(ParallelFleet &fleet, int w)
            : fleet(fleet), w(w)
        {
        }

        sim::Task<void> get(Bytes bytes,
                            net::PlacementKey key = {}) override;
        sim::Task<void> getRange(Bytes offset, Bytes bytes,
                                 net::PlacementKey key = {}) override;
        sim::Task<void> put(Bytes bytes,
                            net::PlacementKey key = {}) override;
        sim::Task<void> putChunk(Bytes stored_bytes,
                                 net::PlacementKey key = {}) override;
        sim::Task<void> getChunks(std::int64_t chunks,
                                  Bytes stored_bytes,
                                  net::PlacementKey key = {}) override;

        /**
         * Mirrors the store domain's routing from the worker side:
         * adopted placements first (OverlapAware truth), content hash
         * otherwise — so ChunkPageSource groups batches per shard
         * without a round trip.
         */
        int shardOf(net::PlacementKey key) const override;
        int shardCount() const override;

      private:
        ParallelFleet &fleet;
        int w;
    };

    /** One worker domain: the host plus its message loops. */
    struct WorkerNode {
        std::unique_ptr<sim::CrossPort<WorkerMsg>> fromControl;
        std::unique_ptr<sim::CrossPort<ControlMsg>> toControl;

        /** @name Shared data plane (sharedSnapshots only). */
        /// @{
        std::unique_ptr<sim::CrossPort<StoreMsg>> toStore;
        std::unique_ptr<sim::CrossPort<StoreReply>> fromStore;
        std::unique_ptr<StorePortClient> storeClient;

        /** Gates of in-flight store ops, by request id. */
        std::unordered_map<std::int64_t, sim::Gate *> storePending;
        std::int64_t nextStoreReq = 0;

        /**
         * Every placement shipped in the Adopts received so far
         * (content hash -> shard): a superset of the chunks of the
         * adopted manifests.
         */
        net::PlacementTable chunkHomes;

        /** Functions adopted; Ready fires when all of mix arrived. */
        std::int64_t adopted = 0;
        std::unique_ptr<sim::Gate> allAdopted;

        /** Cold starts that pulled bytes through the store ports. */
        std::int64_t remoteFetches = 0;
        /// @}

        /** Declared after the ports/client it may reference. */
        std::unique_ptr<core::Worker> worker;

        /** Completion time per function (index), for keep-alive. */
        std::vector<Time> lastUsed;

        /** This worker's fleet row (addWorkerFold). */
        WorkerFleetRow row;

        std::int64_t liveInvokes = 0;
        bool stopping = false;
    };

    /** Control-side record of an in-flight request. */
    struct PendingReq {
        Time t0 = 0;
        sim::Gate *done = nullptr;
    };

    /** Mirrored worker state the routing policies consult. */
    class MirrorView final : public FleetView
    {
      public:
        explicit MirrorView(ParallelFleet &fleet) : fleet(fleet) {}
        int workerCount() const override;
        std::int64_t idleInstances(
            int worker, const std::string &name) const override;
        std::int64_t inFlight(int worker) const override;
        double chunkResidency(int worker,
                              const std::string &name) const override;
        bool warming(const std::string &name) const override;

      private:
        ParallelFleet &fleet;
    };

    /** Store domain index (only meaningful with sharedSnapshots). */
    int storeDomain() const { return cfg.workers + 1; }

    /** LocalityHashPolicy ring home of @p name. */
    int homeWorkerOf(const std::string &name) const
    {
        return LocalityHashPolicy::homeWorker(name, cfg.workers);
    }

    /** @name Worker-domain coroutines. */
    /// @{
    sim::Task<void> workerMain(int w);
    sim::Task<void> workerInvoke(int w, WorkerMsg msg);
    sim::Task<void> workerJanitor(int w);
    sim::Task<void> workerStorePump(int w);
    sim::Task<void> stageHomeFunctions(int w);

    /** Ship @p msg to the store domain; resumes on its OpDone. */
    sim::Task<void> storeOp(int w, StoreMsg msg);
    /// @}

    /** @name Store-domain coroutines (sharedSnapshots only). */
    /// @{
    sim::Task<void> storePump(int w);
    sim::Task<void> storeServe(int w, StoreMsg msg);
    sim::Task<void> storeStage(StoreMsg msg);
    /// @}

    /** @name Control-domain coroutines. */
    /// @{
    sim::Task<void> controlMain();
    sim::Task<void> arrivalLoop(int fn_idx);
    sim::Task<void> trafficArrivalLoop(int fn_idx);
    sim::Task<void> replyPump(int w, sim::Latch *ready);

    /** Route + dispatch one invocation; returns its request id. */
    std::int64_t dispatch(int fn_idx, sim::Gate *done);

    /** Periodic ControlPolicy tick (controlPolicy != None). */
    sim::Task<void> controlTickLoop();
    /// @}

    ParallelFleetConfig cfg;
    sim::ParallelKernel kernel;
    std::vector<AzureMixEntry> mix;
    std::unordered_map<std::string, std::size_t> fnIndex;
    std::vector<std::unique_ptr<WorkerNode>> nodes;
    std::unique_ptr<TrafficEngine> trafficEng;

    /** @name Store-domain state (domain workers+1 only). */
    /// @{
    std::unique_ptr<net::ShardedObjectStore> sharedStore;
    std::unique_ptr<SnapshotRegistry> registry;

    /** Prefix of sharedStore->placements() already sent in an Adopt. */
    std::size_t shippedPlacements = 0;
    /// @}

    /** @name Control-domain state (domain 0 only). */
    /// @{
    RoutingPolicyRegistry policies;
    RoutingPolicy *activePolicy = nullptr;
    ControlPolicyRegistry controlPolicies;

    /** Active control policy; null when kind is None. */
    ControlPolicy *activeControl = nullptr;

    /** Per-function pre-warm already issued and not yet Done. */
    std::vector<char> preWarmInFlight;

    /** Per-function prefetch already issued and not yet Done. */
    std::vector<char> prefetchInFlight;

    /**
     * Mirrored chunk residency [w][fn], updated from Done replies:
     * what the control plane believes each worker holds, one fabric
     * hop stale. Source of MirrorView::chunkResidency.
     */
    std::vector<std::vector<double>> mirrorResidency;

    /** Set after traffic drains; stops the control tick loop. */
    bool controlStopping = false;
    MirrorView view{*this};
    std::vector<std::vector<std::int64_t>> mirrorIdle; // [w][fn]
    std::vector<std::int64_t> mirrorInFlight;          // [w]
    std::unordered_map<std::int64_t, PendingReq> pending;
    std::int64_t nextReqId = 0;

    /** Open-loop drain: opened by replyPump when pending empties. */
    std::unique_ptr<sim::Gate> drainGate;
    /// @}

    /**
     * The run's result. During the run only the control domain
     * writes it, with invocation counts and latencies; run() folds in
     * the worker, registry and kernel totals after the kernel stops.
     */
    FleetStats result;
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_PARALLEL_FLEET_HH

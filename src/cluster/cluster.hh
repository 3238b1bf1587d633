/**
 * @file
 * The vHive fleet control plane (Sec. 3): a front-end/load-balancer
 * (Istio role) routing invocations to workers through a pluggable
 * RoutingPolicy, a Knative-style autoscaler that keeps instances warm
 * for a keep-alive window and scales to zero afterwards — the policy
 * that makes cold starts frequent in production (Sec. 2.1: providers
 * deallocate after 8-20 minutes of inactivity) — and, when
 * cross-worker snapshot sharing is enabled, a SnapshotRegistry that
 * stages each function's artifacts into a fleet-shared object store
 * exactly once (Sec. 7.1). Fleet-wide observability (cold p50/p99,
 * tier hits, store contention, resident memory) surfaces through
 * fleetStats().
 */

#ifndef VHIVE_CLUSTER_CLUSTER_HH
#define VHIVE_CLUSTER_CLUSTER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/control_policy.hh"
#include "cluster/fleet_stats.hh"
#include "cluster/routing_policy.hh"
#include "cluster/snapshot_registry.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "net/object_store.hh"
#include "net/sharded_store.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace vhive::cluster {

/** Cluster-level configuration. */
struct ClusterConfig
{
    /** Number of worker hosts. */
    int workers = 1;

    /** Configuration applied to every worker. */
    core::WorkerConfig worker{};

    /**
     * Idle-instance lifetime before deallocation (Sec. 2.1: providers
     * use 8-20 minutes; default 10).
     */
    Duration keepAlive = sec(600);

    /** How the workers start cold instances. */
    core::ColdStartMode coldStartMode = core::ColdStartMode::Reap;

    /** Autoscaler reconciliation period. */
    Duration scalePeriod = sec(2);

    /**
     * Knative queue-proxy behaviour: at most this many in-flight
     * invocations per function cluster-wide; excess requests queue
     * FIFO instead of scaling out. 0 = unlimited (AWS MicroManager
     * style eager scale-out).
     */
    int maxConcurrencyPerFunction = 0;

    /** Which RoutingPolicy the front-end dispatches through. */
    RoutingPolicyKind routingPolicy = RoutingPolicyKind::WarmFirst;

    /**
     * Which predictive ControlPolicy the autoscaler runs each
     * scalePeriod (pre-warming, chunk prefetch, scale hints). None
     * (default) keeps the janitor's plain keep-alive sweep
     * bit-identical to the historical behaviour.
     */
    ControlPolicyKind controlPolicy = ControlPolicyKind::None;

    /**
     * Cross-worker snapshot sharing (Sec. 7.1 at fleet scale): build
     * each function's snapshot once on its home worker, stage the
     * artifacts into one fleet-shared object store, and let every
     * other worker cold-start through the remote tier instead of
     * rebuilding. Requires a remote-capable cold-start mode
     * (TieredReap or RemoteReap). Off by default: per-worker staging,
     * bit-identical to the historical behaviour.
     */
    bool sharedSnapshots = false;

    /** Parameters of the fleet-shared store (sharedSnapshots only). */
    net::ObjectStoreParams sharedStore = net::ObjectStoreParams::remote();

    /**
     * Shards behind the fleet-shared store (sharedSnapshots only).
     * Each shard has its own stream bound and stats; 1 keeps the
     * historical single-store behaviour bit-identical.
     */
    int sharedStoreShards = 1;

    /** How chunk uploads spread across shards (DedupReap staging). */
    net::ChunkPlacementPolicy chunkPlacement =
        net::ChunkPlacementPolicy::Hash;

    /**
     * Cold starts torn down by an injected WorkerCrash fault are
     * re-routed and retried up to this many times before the
     * invocation is reported failed. Only reachable when a FaultPlan
     * is installed (installFaultPlan); fault-free runs never retry.
     */
    int maxColdStartRetries = 2;

    /**
     * Byte budget of the fleet staged-chunk index (sharedSnapshots +
     * DedupReap; 0 = unlimited, the historical behaviour). Chunks a
     * live manifest references are never evicted; the zero-ref pool
     * retireFunction()/restage leave behind is what budget pressure
     * reclaims. Worker-side budgets (page cache, chunk cache, local
     * SSD) live in ReapOptions.
     */
    Bytes registryChunkBudget = 0;

    /** Victim selection for the budgeted fleet chunk index. */
    storage::EvictionPolicyKind registryEvictionPolicy =
        storage::EvictionPolicyKind::Lru;
};

/** Per-function cluster-level statistics. */
struct FunctionClusterStats
{
    Samples e2eLatencyMs;   ///< end-to-end latency samples (ms)
    Samples queueDelayMs;   ///< time spent waiting in the queue-proxy
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    std::int64_t scaleDowns = 0;

    /**
     * @name Injected-fault accounting (zero without a fault plan).
     * Every accepted invocation lands in exactly one of coldStarts,
     * warmHits or failedInvocations: crashed attempts that were
     * retried count only in crashRetries.
     */
    /// @{

    /** Crashed cold-start attempts that were re-routed and retried. */
    std::int64_t crashRetries = 0;

    /** Invocations reported failed after exhausting crash retries. */
    std::int64_t failedInvocations = 0;
    /// @}
};

/**
 * A cluster of workers behind a front-end. Functions are deployed
 * cluster-wide; invocations enter via invoke() and are routed to the
 * worker picked by the active RoutingPolicy.
 */
class Cluster : private FleetView
{
  public:
    Cluster(sim::Simulation &sim, ClusterConfig config);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Deploy a function on every worker. */
    void deploy(const func::FunctionProfile &profile);

    /**
     * Make every deployed function cold-startable on every worker.
     * Per-worker staging (default): build a snapshot on each worker.
     * Shared staging (ClusterConfig::sharedSnapshots): build + record
     * once per function on its home worker, put() the artifacts into
     * the shared store, fan the metadata out (SnapshotRegistry).
     */
    sim::Task<void> prepareAllSnapshots();

    /**
     * Start the autoscaler's keep-alive janitor (detached task). Call
     * once before driving traffic with scale-to-zero behaviour.
     */
    void startAutoscaler();

    /**
     * Ask the janitor to exit at its next tick. Without this the
     * janitor keeps the event queue non-empty and Simulation::run()
     * never returns; experiments must stop it (or use runUntil).
     */
    void stopAutoscaler() { autoscalerStopping = true; }

    /**
     * Front-end entry point: route one invocation and return its
     * end-to-end latency (including cluster fabric hops).
     */
    sim::Task<Duration> invoke(const std::string &name);

    /**
     * The function's code was updated: invalidate its record
     * fleet-wide and re-stage the new version as a delta. Under
     * shared staging this is SnapshotRegistry::restage — one
     * re-record on the home worker, only churned chunks re-upload,
     * the old version's references release once the delta lands.
     * Per-worker staging just invalidates; each worker's next cold
     * start re-records and delta-stages against its own index.
     */
    sim::Task<void> restageFunction(const std::string &name);

    /**
     * Retire @p name fleet-wide (GC): stop every instance on every
     * worker, release each worker's record and staged-chunk
     * references (Orchestrator::retireRecord), and drop the shared
     * registry's chunks and staging entry. The deployment itself
     * stays, so the function can be invoked (and re-recorded or
     * re-staged) again later. No invocation of @p name may be in
     * flight.
     */
    sim::Task<void> retireFunction(const std::string &name);

    /** Total live instances of @p name across workers. */
    std::int64_t instanceCount(const std::string &name) const;

    /** Total resident instance memory across the fleet (Sec. 4.3). */
    Bytes residentBytes() const;

    /** Cluster-level stats for @p name. */
    const FunctionClusterStats &stats(const std::string &name) const;

    /** Fleet-wide aggregate (cold percentiles, tiers, contention). */
    FleetStats fleetStats() const;

    /** Reset all per-function statistics and fleet telemetry (e.g.
     * after warm-up). Registry staging state is untouched. */
    void resetStats();

    /** Access a worker (for experiment-specific drilling). */
    core::Worker &worker(int idx) { return *workers[static_cast<size_t>(idx)]; }

    int workerCount() const override
    {
        return static_cast<int>(workers.size());
    }

    const ClusterConfig &config() const { return cfg; }

    /** The routing-strategy registry (extension point). */
    RoutingPolicyRegistry &routingPolicies() { return _policies; }

    /** Switch the active routing policy. */
    void setRoutingPolicy(RoutingPolicyKind kind);

    /** The active routing policy. */
    RoutingPolicy &routingPolicy() { return *activePolicy; }

    /** The control-policy registry (extension point). */
    ControlPolicyRegistry &controlPolicies()
    {
        return _controlPolicies;
    }

    /** Switch the active control policy (None detaches). */
    void setControlPolicy(ControlPolicyKind kind);

    /** The active control policy; null when None. */
    ControlPolicy *controlPolicy() { return activeControl; }

    /** Shared snapshot registry; null unless sharedSnapshots. */
    SnapshotRegistry *snapshotRegistry() { return _registry.get(); }

    /** The fleet-shared store; null unless sharedSnapshots. */
    net::ShardedObjectStore *sharedObjectStore()
    {
        return _sharedStore.get();
    }

    /**
     * Install @p plan on every fault hook point of the fleet, under
     * the registry keys its specs are matched against: the shared
     * store as "store/shared", each worker's own store as
     * "store/worker/<i>", each orchestrator's cold-start path as
     * "worker/<i>", and the snapshot registry's staging passes as
     * "staging/<function>". Null detaches everywhere. The plan is
     * borrowed and must outlive the cluster (or be detached first);
     * without one, every path is bit-identical to the historical
     * fault-free behaviour.
     */
    void installFaultPlan(sim::FaultPlan *plan);

  private:
    struct Deployment
    {
        func::FunctionProfile profile;
        FunctionClusterStats stats;
        /** Last time each worker served this function. */
        std::vector<Time> lastUsed;
        /** In-flight limiter (queue-proxy); null when unlimited. */
        std::unique_ptr<sim::Semaphore> concurrency;
    };

    /** Per-worker front-end telemetry feeding fleetStats(). */
    struct WorkerTelemetry
    {
        std::int64_t coldStarts = 0;
        std::int64_t warmHits = 0;
        std::int64_t inFlight = 0;
        std::int64_t inFlightPeak = 0;
        std::vector<core::TierBreakdown> tierHits;
        std::int64_t wastedPrefetchPages = 0;
    };

    /** @name FleetView (the slice policies may consult). */
    /// @{
    std::int64_t idleInstances(int worker,
                               const std::string &name) const override;
    std::int64_t inFlight(int worker) const override;
    Bytes residentBytes(int worker) const override;
    bool artifactsLocal(int worker,
                        const std::string &name) const override;
    double chunkResidency(int worker,
                          const std::string &name) const override;
    /// @}

    /** Keep-alive janitor loop. */
    sim::Task<void> janitor();

    /** Detached pre-warm issued by a control action. */
    sim::Task<void> preWarmTask(std::string name, int widx);

    /** Detached background prefetch issued by a control action;
     * @p until shields the prefetched bytes until the predicted
     * window passes (-1 = no shield). */
    sim::Task<void> backgroundPrefetchTask(std::string name, int widx,
                                           Time until);

    /** Run the active policy's tick and apply its actions. */
    void controlTick();

    sim::Simulation &sim;
    ClusterConfig cfg;
    /** Fleet-shared object store; created before the workers that
     * borrow it (sharedSnapshots only). */
    std::unique_ptr<net::ShardedObjectStore> _sharedStore;
    std::vector<std::unique_ptr<core::Worker>> workers;
    std::unique_ptr<SnapshotRegistry> _registry;
    std::map<std::string, Deployment> deployments;
    RoutingPolicyRegistry _policies;
    RoutingPolicy *activePolicy = nullptr;
    ControlPolicyRegistry _controlPolicies;

    /** Active control policy; null when kind is None (the janitor's
     * tick is then pure keep-alive, bit-identical to no policy). */
    ControlPolicy *activeControl = nullptr;

    /** Sweep rounds the janitor skips (positive ScaleHint). */
    int scaleHold = 0;

    /** Satellite accounting integrated each scalePeriod. */
    double _wastedResidentByteSec = 0;
    double _idleWarmInstanceSec = 0;

    std::vector<WorkerTelemetry> telemetry;
    Samples fleetColdMs;
    Samples fleetWarmMs;
    bool autoscalerRunning = false;
    bool autoscalerStopping = false;
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_CLUSTER_HH

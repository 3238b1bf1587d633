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
#include "core/worker.hh"
#include "net/sharded_store.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace vhive::cluster {

/** Configuration of the sequential Cluster. */
struct ClusterConfig : FleetConfig
{
    /** Number of worker hosts. */
    int workers = 1;

    /**
     * Knative queue-proxy behaviour: at most this many in-flight
     * invocations per function cluster-wide; excess requests queue
     * FIFO instead of scaling out. 0 = unlimited (AWS MicroManager
     * style eager scale-out).
     */
    int maxConcurrencyPerFunction = 0;

    /**
     * Cold starts torn down by an injected WorkerCrash fault are
     * re-routed and retried up to this many times before the
     * invocation is reported failed. Only reachable when a FaultPlan
     * is installed (installFaultPlan); fault-free runs never retry.
     */
    int maxColdStartRetries = 2;
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
     * Run REAP's one-time record phase off the measured window, as
     * deployed production functions recorded long ago
     * (recordOffWindow over @p names and the fleet), then
     * resetStats(). A no-op
     * when the cold-start mode records nothing, and under
     * sharedSnapshots, whose staging already recorded once on each
     * home worker (the other workers are meant to pull the staged
     * artifacts remotely, in-window).
     */
    sim::Task<void> preRecordWorkingSets(
        const std::vector<std::string> &names);

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

    /** Cluster-level stats for @p name. Summed over every deployed
     * function, coldStarts, warmHits, failedInvocations and
     * e2eLatencyMs reproduce fleetStats()'s fleet-wide counts. */
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

    /** The control-policy registry (extension point). */
    ControlPolicyRegistry &controlPolicies()
    {
        return _controlPolicies;
    }

    /** Switch the active control policy (None detaches). */
    void setControlPolicy(ControlPolicyKind kind);

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
    void installFaultPlan(const sim::FaultPlan *plan);

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

    /** @name FleetView (the slice policies may consult). */
    /// @{
    std::int64_t idleInstances(int worker,
                               const std::string &name) const override;
    std::int64_t inFlight(int worker) const override;
    double chunkResidency(int worker,
                          const std::string &name) const override;
    /** Some worker is still pre-warming @p name. */
    bool warming(const std::string &name) const override;
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

    /** invoke()'s completions (FleetStats::noteInvocation);
     * fleetStats() completes a copy from the workers. */
    FleetStats tally;

    /** Each worker's fleetStats() row (addWorkerFold). */
    std::vector<WorkerFleetRow> rows;

    /** Live invocations per worker (FleetView::inFlight). */
    std::vector<std::int64_t> inFlightCounts;
    bool autoscalerRunning = false;
    bool autoscalerStopping = false;
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_CLUSTER_HH

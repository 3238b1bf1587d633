#include "cluster/cluster.hh"

#include <algorithm>
#include <optional>

#include "net/rpc.hh"
#include "util/logging.hh"

namespace vhive::cluster {

namespace {

/**
 * Decrements an in-flight counter on any exit path of the invoke
 * coroutine — the same frame-destruction paths the queue-proxy
 * SemaphoreGuard covers; a leaked count would permanently skew the
 * load-aware routing policies.
 */
struct InFlightGuard
{
    explicit InFlightGuard(std::int64_t &c) : count(c) { ++count; }
    ~InFlightGuard() { --count; }
    InFlightGuard(const InFlightGuard &) = delete;
    InFlightGuard &operator=(const InFlightGuard &) = delete;

    std::int64_t &count;
};

} // namespace

Cluster::Cluster(sim::Simulation &sim, ClusterConfig config)
    : sim(sim), cfg(std::move(config))
{
    checkFleetConfig("Cluster", cfg, cfg.workers);
    if (cfg.sharedSnapshots)
        _sharedStore = std::make_unique<net::ShardedObjectStore>(
            sim, cfg.sharedStoreParams());
    for (int i = 0; i < cfg.workers; ++i)
        workers.push_back(std::make_unique<core::Worker>(
            sim, cfg.workerConfig(i), _sharedStore.get()));
    rows.resize(workers.size());
    inFlightCounts.assign(workers.size(), 0);
    if (cfg.sharedSnapshots)
        _registry = std::make_unique<SnapshotRegistry>(
            sim, *_sharedStore, cfg, cfg.workers);
    activePolicy = &_policies.policyFor(cfg.routingPolicy);
    if (cfg.controlPolicy != ControlPolicyKind::None)
        activeControl = &_controlPolicies.policyFor(cfg.controlPolicy);
}

void
Cluster::setControlPolicy(ControlPolicyKind kind)
{
    activeControl = kind == ControlPolicyKind::None
                        ? nullptr
                        : &_controlPolicies.policyFor(kind);
}

void
Cluster::installFaultPlan(const sim::FaultPlan *plan)
{
    if (_sharedStore)
        _sharedStore->setFaultPlan(plan, "store/shared");
    for (size_t i = 0; i < workers.size(); ++i) {
        std::string idx = std::to_string(i);
        workers[i]->objectStore().setFaultPlan(plan,
                                               "store/worker/" + idx);
        workers[i]->orchestrator().setFaultPlan(plan, "worker/" + idx);
    }
    if (_registry)
        _registry->setFaultPlan(plan);
}

void
Cluster::deploy(const func::FunctionProfile &profile)
{
    if (deployments.count(profile.name))
        fatal("function %s already deployed", profile.name.c_str());
    Deployment dep;
    dep.profile = profile;
    dep.lastUsed.assign(workers.size(), 0);
    if (cfg.maxConcurrencyPerFunction > 0) {
        dep.concurrency = std::make_unique<sim::Semaphore>(
            sim, cfg.maxConcurrencyPerFunction);
    }
    deployments.emplace(profile.name, std::move(dep));
    for (auto &w : workers)
        w->orchestrator().registerFunction(profile);
}

sim::Task<void>
Cluster::prepareAllSnapshots()
{
    if (_registry) {
        // Build-once + fan-out: one snapshot build, one record phase
        // and one put() per function, regardless of worker count.
        for (auto &entry : deployments)
            co_await _registry->ensureStaged(entry.first, workers);
        co_return;
    }
    for (auto &entry : deployments) {
        for (auto &w : workers)
            co_await w->orchestrator().prepareSnapshot(entry.first);
    }
}

sim::Task<void>
Cluster::preRecordWorkingSets(const std::vector<std::string> &names)
{
    if (cfg.sharedSnapshots)
        co_return;
    std::vector<core::Orchestrator *> orchs;
    for (auto &w : workers)
        orchs.push_back(&w->orchestrator());
    if (co_await recordOffWindow(orchs, names, cfg.coldStartMode))
        resetStats();
}

std::int64_t
Cluster::idleInstances(int worker, const std::string &name) const
{
    return workers[static_cast<size_t>(worker)]
        ->orchestrator()
        .idleInstanceCount(name);
}

std::int64_t
Cluster::inFlight(int worker) const
{
    return inFlightCounts[static_cast<size_t>(worker)];
}

double
Cluster::chunkResidency(int worker, const std::string &name) const
{
    const auto &orch =
        workers[static_cast<size_t>(worker)]->orchestrator();
    return orch.hasFunction(name) ? orch.chunkResidency(name) : 0.0;
}

bool
Cluster::warming(const std::string &name) const
{
    return std::any_of(workers.begin(), workers.end(), [&](const auto &w) {
        return w->orchestrator().warmingCount(name) > 0;
    });
}

sim::Task<Duration>
Cluster::invoke(const std::string &name)
{
    auto it = deployments.find(name);
    if (it == deployments.end())
        fatal("function %s is not deployed", name.c_str());
    Deployment &dep = it->second;

    if (activeControl != nullptr)
        activeControl->noteArrival(name, sim.now());

    Time t0 = sim.now();
    // Front-end + fabric hop to the worker.
    net::RpcParams rpc;
    co_await sim.delay(rpc.clusterHop);

    // Queue-proxy admission: bound in-flight invocations, FIFO. The
    // guard releases the slot on any exit path (including frame
    // destruction of a cancelled task); the explicit reset below keeps
    // the release at the same simulated point as before.
    std::optional<sim::SemaphoreGuard> admission;
    if (dep.concurrency) {
        Time q0 = sim.now();
        co_await dep.concurrency->acquire();
        admission.emplace(*dep.concurrency);
        dep.stats.queueDelayMs.add(toMs(sim.now() - q0));
    }

    core::InvokeOptions opts;
    opts.keepWarm = true;

    // Route and serve; a cold start torn down by an injected
    // WorkerCrash is re-routed (the crashed worker's instance is
    // gone, so load-aware policies see the failure) and retried up
    // to maxColdStartRetries times. Fault-free runs take exactly one
    // iteration, event-for-event identical to the pre-fault code.
    core::LatencyBreakdown bd;
    int widx = -1;
    bool artifacts_were_local = true;
    for (int attempt = 0;; ++attempt) {
        widx = activePolicy->route(RouteContext{name, *this});
        VHIVE_ASSERT(widx >= 0 && widx < workerCount());
        auto &orch = workers[static_cast<size_t>(widx)]->orchestrator();

        // Whether the cold start (if any) will pull staged artifacts
        // through the remote tier rather than a local copy.
        artifacts_were_local =
            _registry == nullptr || orch.artifactsLocal(name);

        // Released at the end of the attempt, before anything suspends.
        InFlightGuard in_flight(inFlightCounts[static_cast<size_t>(widx)]);
        bd = co_await orch.invoke(name, cfg.coldStartMode, opts);

        if (!bd.crashed || attempt >= cfg.maxColdStartRetries)
            break;
        ++dep.stats.crashRetries;
    }

    admission.reset(); // return the queue-proxy slot

    co_await sim.delay(rpc.clusterHop); // response hop
    Duration e2e = sim.now() - t0;

    rows[static_cast<size_t>(widx)].note(bd);
    dep.lastUsed[static_cast<size_t>(widx)] = sim.now();
    dep.stats.e2eLatencyMs.add(toMs(e2e));
    // A crash that outlived its retries is reported failed, once.
    tally.noteInvocation(e2e, bd.cold, bd.crashed);
    if (bd.crashed) {
        ++dep.stats.failedInvocations;
    } else if (bd.cold) {
        ++dep.stats.coldStarts;
        if (_registry && pulledStagedArtifact(cfg.coldStartMode, bd,
                                              artifacts_were_local))
            _registry->noteRemoteFetch(name, widx);
    } else {
        ++dep.stats.warmHits;
    }
    co_return e2e;
}

sim::Task<void>
Cluster::restageFunction(const std::string &name)
{
    if (deployments.find(name) == deployments.end())
        fatal("function %s is not deployed", name.c_str());
    if (_registry != nullptr && _registry->isStaged(name)) {
        co_await _registry->restage(name, workers);
        co_return;
    }
    // Per-worker staging: invalidate everywhere; each worker's next
    // cold start re-records and stages the delta against the
    // still-referenced previous version in its own index.
    for (auto &w : workers)
        w->orchestrator().invalidateRecord(name);
}

sim::Task<void>
Cluster::retireFunction(const std::string &name)
{
    auto it = deployments.find(name);
    if (it == deployments.end())
        fatal("function %s is not deployed", name.c_str());
    for (auto &w : workers) {
        auto &orch = w->orchestrator();
        co_await orch.stopAllInstances(name);
        orch.retireRecord(name);
    }
    if (_registry)
        _registry->retire(name);
    // Routing freshness resets: a later revival starts cold.
    it->second.lastUsed.assign(workers.size(), 0);
}

std::int64_t
Cluster::instanceCount(const std::string &name) const
{
    std::int64_t total = 0;
    for (const auto &w : workers)
        total += w->orchestrator().instanceCount(name);
    return total;
}

Bytes
Cluster::residentBytes() const
{
    Bytes total = 0;
    for (const auto &w : workers)
        total += w->orchestrator().totalResidentBytes();
    return total;
}

const FunctionClusterStats &
Cluster::stats(const std::string &name) const
{
    auto it = deployments.find(name);
    if (it == deployments.end())
        fatal("function %s is not deployed", name.c_str());
    return it->second.stats;
}

FleetStats
Cluster::fleetStats() const
{
    FleetStats fs = tally;
    fs.workers = workerCount();
    for (size_t i = 0; i < workers.size(); ++i)
        addWorkerFold(fs, static_cast<int>(i), *workers[i], rows[i],
                      cfg.sharedSnapshots);
    if (_registry) {
        addRegistryStaging(fs, *_registry);
        fs.store = _sharedStore->stats();
        fs.storeShards = _sharedStore->shardStats();
    }
    return fs;
}

void
Cluster::resetStats()
{
    for (auto &entry : deployments)
        entry.second.stats = FunctionClusterStats{};
    // Live invocations stay counted: the in-flight counts are routing
    // state, not statistics.
    rows.assign(workers.size(), WorkerFleetRow{});
    tally = FleetStats{};
}

sim::Task<void>
Cluster::preWarmTask(std::string name, int widx)
{
    auto it = deployments.find(name);
    if (it == deployments.end())
        co_return;
    bool up = co_await preWarmInstance(
        workers[static_cast<size_t>(widx)]->orchestrator(), name,
        cfg.coldStartMode);
    if (up) {
        // The pre-warmed instance is autoscaler-sanctioned activity;
        // without this the very next sweep would reap it before the
        // predicted arrival it was warmed for.
        it->second.lastUsed[static_cast<size_t>(widx)] = sim.now();
    }
}

sim::Task<void>
Cluster::backgroundPrefetchTask(std::string name, int widx,
                                Time until)
{
    co_await workers[static_cast<size_t>(widx)]
        ->orchestrator()
        .backgroundPrefetch(name, until);
}

void
Cluster::controlTick()
{
    std::vector<std::string> names;
    for (const auto &entry : deployments)
        names.push_back(entry.first);
    std::vector<ControlAction> actions;
    activeControl->tick(controlTickSnapshot(*this, tally, sim.now(), names),
                        actions);
    for (const ControlAction &a : actions) {
        switch (a.kind) {
          case ControlAction::Kind::PreWarm:
            sim.spawn(preWarmTask(a.function, a.worker));
            break;
          case ControlAction::Kind::Prefetch:
            sim.spawn(backgroundPrefetchTask(a.function, a.worker,
                                             a.until));
            break;
          case ControlAction::Kind::ScaleHint:
            if (a.hint > 0)
                scaleHold = std::max(scaleHold, a.hint);
            break;
        }
    }
}

sim::Task<void>
Cluster::janitor()
{
    while (!autoscalerStopping) {
        co_await sim.delay(cfg.scalePeriod);

        // Warm-pool waste accounting over the tick; no suspension, so
        // a dormant control plane stays bit-identical to none.
        for (size_t i = 0; i < workers.size(); ++i)
            rows[i].noteIdle(workers[i]->orchestrator(), cfg.scalePeriod);

        if (activeControl != nullptr)
            controlTick();

        if (scaleHold > 0) {
            // A positive ScaleHint parks the sweep: cold p99 is over
            // target, shrinking the warm pool now would make it worse.
            --scaleHold;
            continue;
        }

        for (auto &entry : deployments) {
            Deployment &dep = entry.second;
            for (size_t i = 0; i < workers.size(); ++i) {
                auto &orch = workers[i]->orchestrator();
                if (!keepAliveExpired(orch, entry.first, dep.lastUsed[i],
                                      sim.now(), cfg.keepAlive))
                    continue;
                bool stopped =
                    co_await scaleDownIdle(orch, entry.first, rows[i]);
                if (stopped)
                    ++dep.stats.scaleDowns;
            }
        }
    }
    autoscalerRunning = false;
}

void
Cluster::startAutoscaler()
{
    if (autoscalerRunning)
        return;
    autoscalerRunning = true;
    autoscalerStopping = false;
    sim.spawn(janitor());
}

} // namespace vhive::cluster

#include "cluster/cluster.hh"

#include <algorithm>
#include <optional>

#include "core/loader/builtin_loaders.hh"
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
    explicit InFlightGuard(std::int64_t &c) : count(&c) { ++*count; }
    ~InFlightGuard() { release(); }
    InFlightGuard(const InFlightGuard &) = delete;
    InFlightGuard &operator=(const InFlightGuard &) = delete;

    void
    release()
    {
        if (count != nullptr) {
            --*count;
            count = nullptr;
        }
    }

  private:
    std::int64_t *count;
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
    telemetry.resize(workers.size());
    if (cfg.sharedSnapshots) {
        _registry = std::make_unique<SnapshotRegistry>(
            sim, *_sharedStore, workers, cfg.coldStartMode);
        if (cfg.registryChunkBudget > 0)
            _registry->setChunkBudget(cfg.registryChunkBudget,
                                      cfg.registryEvictionPolicy);
    }
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
Cluster::setRoutingPolicy(RoutingPolicyKind kind)
{
    activePolicy = &_policies.policyFor(kind);
}

void
Cluster::installFaultPlan(sim::FaultPlan *plan)
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
            co_await _registry->ensureStaged(entry.first);
        co_return;
    }
    for (auto &entry : deployments) {
        for (auto &w : workers)
            co_await w->orchestrator().prepareSnapshot(entry.first);
    }
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
    return telemetry[static_cast<size_t>(worker)].inFlight;
}

Bytes
Cluster::residentBytes(int worker) const
{
    return workers[static_cast<size_t>(worker)]
        ->orchestrator()
        .totalResidentBytes();
}

bool
Cluster::artifactsLocal(int worker, const std::string &name) const
{
    const auto &orch = workers[static_cast<size_t>(worker)]->orchestrator();
    return orch.hasFunction(name) && orch.artifactsLocal(name);
}

double
Cluster::chunkResidency(int worker, const std::string &name) const
{
    const auto &orch =
        workers[static_cast<size_t>(worker)]->orchestrator();
    return orch.hasFunction(name) ? orch.chunkResidency(name) : 0.0;
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
        WorkerTelemetry &tele = telemetry[static_cast<size_t>(widx)];

        // Whether the cold start (if any) will pull staged artifacts
        // through the remote tier rather than a local copy.
        artifacts_were_local =
            _registry == nullptr || orch.artifactsLocal(name);

        InFlightGuard in_flight(tele.inFlight);
        tele.inFlightPeak = std::max(tele.inFlightPeak, tele.inFlight);
        bd = co_await orch.invoke(name, cfg.coldStartMode, opts);
        in_flight.release();

        if (!bd.crashed || attempt >= cfg.maxColdStartRetries)
            break;
        ++dep.stats.crashRetries;
    }

    admission.reset(); // return the queue-proxy slot

    co_await sim.delay(rpc.clusterHop); // response hop
    Duration e2e = sim.now() - t0;

    WorkerTelemetry &tele = telemetry[static_cast<size_t>(widx)];
    dep.lastUsed[static_cast<size_t>(widx)] = sim.now();
    dep.stats.e2eLatencyMs.add(toMs(e2e));
    ++tally.invocations;
    if (bd.crashed) {
        // Retries exhausted: reported failed exactly once, counted in
        // neither coldStarts nor warmHits.
        ++dep.stats.failedInvocations;
    } else if (bd.cold) {
        ++dep.stats.coldStarts;
        ++tele.coldStarts;
        ++tally.coldStarts;
        tally.coldE2eMs.add(toMs(e2e));
        for (const auto &t : bd.tierHits)
            mergeTierRow(tele.tierHits, t);
        tele.wastedPrefetchPages += bd.wastedPrefetch;
        if (_registry) {
            // A mode without local tiers GETs the artifacts on every
            // cold start no matter what lives locally. Tiered chains
            // report exactly which tier served the WS bytes; trust
            // that over the pre-invoke snapshot (a concurrent cold
            // start may have re-localized the artifacts while this one
            // queued).
            bool fetched_remotely =
                core::loader::sharedStagingPreset(cfg.coldStartMode)
                        .tiers == core::loader::TieredPreset::Tiers::None ||
                !artifacts_were_local;
            for (const auto &t : bd.tierHits) {
                if (t.tier == "remote")
                    fetched_remotely = t.bytes > 0;
            }
            if (fetched_remotely)
                _registry->noteRemoteFetch(name, widx);
        }
    } else {
        ++dep.stats.warmHits;
        ++tele.warmHits;
        ++tally.warmHits;
        tally.warmE2eMs.add(toMs(e2e));
    }
    co_return e2e;
}

sim::Task<void>
Cluster::restageFunction(const std::string &name)
{
    if (deployments.find(name) == deployments.end())
        fatal("function %s is not deployed", name.c_str());
    if (_registry != nullptr && _registry->isStaged(name)) {
        co_await _registry->restage(name);
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
    for (size_t i = 0; i < workers.size(); ++i) {
        WorkerFleetRow row = telemetry[i];
        row.worker = static_cast<int>(i);
        row.residentBytes =
            workers[i]->orchestrator().totalResidentBytes();
        fs.residentBytes += row.residentBytes;
        fs.wastedPrefetchPages += row.wastedPrefetchPages;
        for (const auto &t : row.tierHits)
            mergeTierRow(fs.tierHits, t);
        fs.perWorker.push_back(std::move(row));
    }
    for (const auto &w : workers) {
        const auto &orch = w->orchestrator();
        fs.wastedPreWarms += orch.wastedPreWarms();
        fs.bgPrefetches += orch.backgroundPrefetches();
        addWorkerEconomics(fs, orch);
        for (const auto &entry : deployments) {
            const core::FunctionStats &st = orch.stats(entry.first);
            fs.preWarms += st.preWarms;
            fs.preWarmHits += st.preWarmHits;
            if (_registry == nullptr) {
                // Worker-local staging: delta accounting lives in the
                // per-function stats (the registry's under sharing).
                fs.restages += st.deltaRestages;
                fs.deltaChunksUploaded += st.deltaChunksUploaded;
                fs.deltaBytesUploaded += st.deltaBytesUploaded;
            }
        }
    }
    if (_sharedStore) {
        fs.store = _sharedStore->stats();
        fs.storeShards = _sharedStore->shardStats();
    } else {
        for (const auto &w : workers)
            mergeStoreStats(fs.store, w->objectStore().stats());
    }
    if (_registry) {
        fs.snapshotBuilds = _registry->totalBuilds();
        fs.stagedBytes = _registry->totalStagedBytes();
        fs.remoteArtifactFetches = _registry->totalRemoteFetches();
        if (_registry->chunked()) {
            const storage::ChunkStore &idx = _registry->chunkIndex();
            fs.chunkLogicalBytes = _registry->totalLogicalBytes();
            fs.chunkStoredBytes = idx.storedBytes();
            fs.dedupSavedBytes = _registry->totalDedupSavedBytes();
            fs.chunksStored = idx.chunkCount();
            fs.chunksDeduped = idx.stats().dedupHits;
            fs.fleetChunkPeakBytes = idx.stats().peakStoredBytes;
            fs.fleetChunkBudgetEvictions = idx.stats().budgetEvictions;
        }
        fs.restages = _registry->totalRestages();
        for (const auto &entry : deployments) {
            if (!_registry->isStaged(entry.first))
                continue;
            const StagedArtifact &art =
                _registry->artifact(entry.first);
            fs.fetchFanIn += art.fetchFanIn();
            fs.deltaChunksUploaded += art.deltaChunksUploaded;
            fs.deltaBytesUploaded += art.deltaBytesUploaded;
        }
        fs.retires = _registry->retires();
        fs.gcReleasedBytes = _registry->gcReleasedBytes();
    } else {
        for (const auto &w : workers)
            fs.snapshotBuilds += w->orchestrator().snapshotBuilds();
    }
    return fs;
}

void
Cluster::resetStats()
{
    for (auto &entry : deployments)
        entry.second.stats = FunctionClusterStats{};
    for (auto &tele : telemetry) {
        std::int64_t in_flight = tele.inFlight;
        tele = WorkerTelemetry{};
        // Live invocations stay counted, and remain the floor of the
        // post-reset peak (the worker demonstrably carries them now).
        tele.inFlight = in_flight;
        tele.inFlightPeak = in_flight;
    }
    tally = FleetStats{};
}

sim::Task<void>
Cluster::preWarmTask(std::string name, int widx)
{
    auto it = deployments.find(name);
    if (it == deployments.end())
        co_return;
    auto &orch = workers[static_cast<size_t>(widx)]->orchestrator();
    core::LatencyBreakdown bd =
        co_await orch.preWarm(
            name, core::loader::preWarmModeFor(cfg.coldStartMode));
    if (bd.total > 0 && !bd.crashed) {
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
    ControlTickContext ctx;
    ctx.now = sim.now();
    ctx.workers = workerCount();
    ctx.coldP99Ms = tally.coldE2eMs.count() > 0 ? tally.coldP99() : 0.0;
    ctx.coldStarts = tally.coldStarts;
    for (const auto &entry : deployments) {
        ControlFunctionView v;
        v.name = entry.first;
        v.homeWorker = LocalityHashPolicy::homeWorker(entry.first,
                                                      workerCount());
        std::int64_t warming = 0;
        for (const auto &w : workers) {
            v.idleInstances +=
                w->orchestrator().idleInstanceCount(entry.first);
            warming += w->orchestrator().warmingCount(entry.first);
        }
        v.warming = warming > 0;
        v.homeChunkResidency =
            chunkResidency(v.homeWorker, entry.first);
        ctx.functions.push_back(std::move(v));
    }

    std::vector<ControlAction> actions;
    activeControl->tick(ctx, actions);
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

        // Warm-pool waste accounting: integrate idle-warm bytes and
        // instance counts over the tick. Pure arithmetic, no
        // suspension — runs identically with or without a policy, so
        // a dormant control plane stays bit-identical to none.
        double dt = static_cast<double>(cfg.scalePeriod) / 1e9;
        for (const auto &w : workers) {
            const auto &orch = w->orchestrator();
            tally.wastedResidentByteSec +=
                static_cast<double>(orch.idleResidentBytes()) * dt;
            tally.idleWarmInstanceSec +=
                static_cast<double>(orch.idleInstanceTotal()) * dt;
        }

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
                if (orch.idleInstanceCount(entry.first) == 0)
                    continue;
                if (sim.now() - dep.lastUsed[i] >= cfg.keepAlive) {
                    // Scale to zero on this worker: idle instances
                    // have outlived the keep-alive window. Busy
                    // instances are left to finish their in-flight
                    // invocations.
                    std::int64_t stopped =
                        co_await orch.stopIdleInstances(entry.first);
                    if (stopped > 0) {
                        ++dep.stats.scaleDowns;
                        ++tally.scaleDowns;
                    }
                }
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

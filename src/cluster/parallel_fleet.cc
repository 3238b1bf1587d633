#include "cluster/parallel_fleet.hh"

#include "net/rpc.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vhive::cluster {

ParallelFleet::ParallelFleet(ParallelFleetConfig config)
    // Checked in the member-init list, before the kernel's thread pool
    // is constructed: an unsupported configuration exits cleanly
    // instead of tearing down live simulation threads.
    : cfg([&] {
          checkFleetConfig("ParallelFleet", config, config.workers,
                           config.simThreads);
          return std::move(config);
      }()),
      kernel(cfg.workers + 1 + (cfg.sharedSnapshots ? 1 : 0),
             cfg.simThreads)
{
    // Every port pays the cluster fabric hop, which is also the
    // kernel's lookahead window.
    const Duration hop = net::RpcParams{}.clusterHop;
    if (cfg.traffic) {
        // Traffic-driven mix: the engine's Zipf population, driven
        // open-loop (meanInterarrival unused on this path).
        trafficEng = std::make_unique<TrafficEngine>(*cfg.traffic);
        mix.reserve(
            static_cast<std::size_t>(trafficEng->functionCount()));
        for (int i = 0; i < trafficEng->functionCount(); ++i)
            mix.push_back(AzureMixEntry{trafficEng->profile(i), 0});
    } else {
        mix = synthesizeAzureMix(cfg.workload);
    }
    for (std::size_t i = 0; i < mix.size(); ++i)
        fnIndex[mix[i].profile.name] = i;

    mirrorIdle.assign(static_cast<std::size_t>(cfg.workers),
                      std::vector<std::int64_t>(mix.size(), 0));
    mirrorInFlight.assign(static_cast<std::size_t>(cfg.workers), 0);
    activePolicy = &policies.policyFor(cfg.routingPolicy);
    preWarmInFlight.assign(mix.size(), 0);
    prefetchInFlight.assign(mix.size(), 0);
    // Mirrored chunk residency, one hop stale (refreshed by Done
    // replies). Non-shared fleets keep every artifact local, so full
    // residency everywhere; shared fleets start with residency only
    // on each function's home worker (where it records) and learn the
    // rest from replies.
    mirrorResidency.assign(
        static_cast<std::size_t>(cfg.workers),
        std::vector<double>(mix.size(), cfg.sharedSnapshots ? 0.0
                                                            : 1.0));
    if (cfg.sharedSnapshots)
        for (std::size_t i = 0; i < mix.size(); ++i)
            mirrorResidency[static_cast<std::size_t>(
                homeWorkerOf(mix[i].profile.name))][i] = 1.0;
    if (cfg.controlPolicy != ControlPolicyKind::None)
        activeControl = &controlPolicies.policyFor(cfg.controlPolicy);

    if (cfg.sharedSnapshots) {
        sharedStore = std::make_unique<net::ShardedObjectStore>(
            kernel.sim(storeDomain()), cfg.sharedStoreParams());
        registry = std::make_unique<SnapshotRegistry>(
            kernel.sim(storeDomain()), *sharedStore, cfg, cfg.workers);
        // The one immutable plan, under the same "store/shared[/<s>]"
        // and "staging/<fn>" tags the sequential Cluster uses.
        sharedStore->setFaultPlan(&cfg.faults, "store/shared");
        registry->setFaultPlan(&cfg.faults);
    }

    nodes.reserve(static_cast<std::size_t>(cfg.workers));
    for (int w = 0; w < cfg.workers; ++w) {
        auto node = std::make_unique<WorkerNode>();
        node->fromControl =
            std::make_unique<sim::CrossPort<WorkerMsg>>(
                kernel, kernel.domain(0), kernel.domain(1 + w),
                hop);
        node->toControl =
            std::make_unique<sim::CrossPort<ControlMsg>>(
                kernel, kernel.domain(1 + w), kernel.domain(0),
                hop);
        if (cfg.sharedSnapshots) {
            // Store ports + client must exist before the Worker: the
            // worker's loaders capture the client as their artifact
            // store.
            node->toStore =
                std::make_unique<sim::CrossPort<StoreMsg>>(
                    kernel, kernel.domain(1 + w),
                    kernel.domain(storeDomain()), hop);
            node->fromStore =
                std::make_unique<sim::CrossPort<StoreReply>>(
                    kernel, kernel.domain(storeDomain()),
                    kernel.domain(1 + w), hop);
            node->storeClient =
                std::make_unique<StorePortClient>(*this, w);
            node->allAdopted =
                std::make_unique<sim::Gate>(kernel.sim(1 + w));
        }
        node->worker = std::make_unique<core::Worker>(
            kernel.sim(1 + w), cfg.workerConfig(w),
            node->storeClient.get());
        node->lastUsed.assign(mix.size(), 0);
        node->worker->objectStore().setFaultPlan(
            &cfg.faults, "store/worker/" + std::to_string(w));
        nodes.push_back(std::move(node));
    }
}

ParallelFleet::~ParallelFleet() = default;

// ------------------------------------------------------- mirror view

int
ParallelFleet::MirrorView::workerCount() const
{
    return fleet.cfg.workers;
}

std::int64_t
ParallelFleet::MirrorView::idleInstances(int worker,
                                         const std::string &name) const
{
    return fleet.mirrorIdle[static_cast<std::size_t>(worker)]
                           [fleet.fnIndex.at(name)];
}

std::int64_t
ParallelFleet::MirrorView::inFlight(int worker) const
{
    return fleet.mirrorInFlight[static_cast<std::size_t>(worker)];
}

double
ParallelFleet::MirrorView::chunkResidency(int worker,
                                          const std::string &name) const
{
    return fleet.mirrorResidency[static_cast<std::size_t>(worker)]
                                [fleet.fnIndex.at(name)];
}

bool
ParallelFleet::MirrorView::warming(const std::string &name) const
{
    // A pre-warm or prefetch issued whose Done has not come back.
    std::size_t fn = fleet.fnIndex.at(name);
    return fleet.preWarmInFlight[fn] != 0 ||
           fleet.prefetchInFlight[fn] != 0;
}

// ----------------------------------------------- store port client

sim::Task<void>
ParallelFleet::StorePortClient::get(Bytes bytes, net::PlacementKey key)
{
    StoreMsg m;
    m.op = StoreMsg::Get;
    m.a = bytes;
    m.key = key;
    co_await fleet.storeOp(w, m);
}

sim::Task<void>
ParallelFleet::StorePortClient::getRange(Bytes offset, Bytes bytes,
                                         net::PlacementKey key)
{
    StoreMsg m;
    m.op = StoreMsg::GetRange;
    m.a = offset;
    m.b = bytes;
    m.key = key;
    co_await fleet.storeOp(w, m);
}

sim::Task<void>
ParallelFleet::StorePortClient::put(Bytes bytes, net::PlacementKey key)
{
    StoreMsg m;
    m.op = StoreMsg::Put;
    m.a = bytes;
    m.key = key;
    co_await fleet.storeOp(w, m);
}

sim::Task<void>
ParallelFleet::StorePortClient::putChunk(Bytes stored_bytes,
                                         net::PlacementKey key)
{
    StoreMsg m;
    m.op = StoreMsg::PutChunk;
    m.a = stored_bytes;
    m.key = key;
    co_await fleet.storeOp(w, m);
}

sim::Task<void>
ParallelFleet::StorePortClient::getChunks(std::int64_t chunks,
                                          Bytes stored_bytes,
                                          net::PlacementKey key)
{
    StoreMsg m;
    m.op = StoreMsg::GetChunks;
    m.chunks = chunks;
    m.b = stored_bytes;
    m.key = key;
    co_await fleet.storeOp(w, m);
}

int
ParallelFleet::StorePortClient::shardOf(net::PlacementKey key) const
{
    const WorkerNode &node =
        *fleet.nodes[static_cast<std::size_t>(w)];
    if (int s = node.chunkHomes.find(key.content); s >= 0)
        return s;
    return net::hashShardOf(key.content, fleet.cfg.sharedStoreShards);
}

int
ParallelFleet::StorePortClient::shardCount() const
{
    return fleet.cfg.sharedStoreShards;
}

ParallelFleet::PlacementAudit
ParallelFleet::auditPlacements() const
{
    PlacementAudit audit;
    if (!cfg.sharedSnapshots)
        return audit;
    for (const auto &node : nodes) {
        const auto &orch = node->worker->orchestrator();
        for (const AzureMixEntry &entry : mix) {
            const std::string &name = entry.profile.name;
            auto m = orch.manifests(name);
            if (!m)
                continue;
            const std::uint64_t scope = net::placementScope(name);
            for (const storage::ChunkManifest *man :
                 {&m->vmmState, &m->ws})
                for (const storage::ChunkRef &c : man->chunks) {
                    ++audit.checked;
                    if (node->storeClient->shardOf({c.hash, scope}) !=
                        sharedStore->shardOf({c.hash, scope}))
                        ++audit.disagreeing;
                }
        }
    }
    return audit;
}

const core::Orchestrator &
ParallelFleet::orchestrator(int w) const
{
    return nodes.at(static_cast<std::size_t>(w))->worker->orchestrator();
}

sim::Task<void>
ParallelFleet::storeOp(int w, StoreMsg msg)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    msg.kind = StoreMsg::Op;
    msg.reqId = node.nextStoreReq++;
    sim::Gate gate(kernel.sim(1 + w));
    node.storePending.emplace(msg.reqId, &gate);
    node.toStore->send(msg);
    co_await gate.wait();
    node.storePending.erase(msg.reqId);
}

// ---------------------------------------------------- store domain

sim::Task<void>
ParallelFleet::storePump(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    sim::Simulation &ssim = kernel.sim(storeDomain());

    while (true) {
        StoreMsg msg = co_await node.toStore->recv();
        switch (msg.kind) {
          case StoreMsg::Op:
            // Served on its own task so one worker's in-flight store
            // requests overlap (reqIds disambiguate the replies).
            ssim.spawn(storeServe(w, msg));
            break;
          case StoreMsg::Stage:
            ssim.spawn(storeStage(msg));
            break;
          case StoreMsg::Bye: {
            StoreReply r;
            r.kind = StoreReply::Bye;
            node.fromStore->send(r);
            co_return;
          }
        }
    }
}

sim::Task<void>
ParallelFleet::storeServe(int w, StoreMsg msg)
{
    switch (msg.op) {
      case StoreMsg::Get:
        co_await sharedStore->get(msg.a, msg.key);
        break;
      case StoreMsg::GetRange:
        co_await sharedStore->getRange(msg.a, msg.b, msg.key);
        break;
      case StoreMsg::Put:
        co_await sharedStore->put(msg.a, msg.key);
        break;
      case StoreMsg::PutChunk:
        co_await sharedStore->putChunk(msg.a, msg.key);
        break;
      case StoreMsg::GetChunks:
        co_await sharedStore->getChunks(msg.chunks, msg.b, msg.key);
        break;
    }
    StoreReply r;
    r.kind = StoreReply::OpDone;
    r.reqId = msg.reqId;
    nodes[static_cast<std::size_t>(w)]->fromStore->send(r);
}

sim::Task<void>
ParallelFleet::storeStage(StoreMsg msg)
{
    const StagedBuild &build = msg.stage->build;
    const std::string &name =
        mix[static_cast<std::size_t>(msg.stage->fnIdx)].profile.name;
    co_await registry->stage(name, build);

    auto adopt = std::make_shared<AdoptPayload>();
    adopt->stage = msg.stage;
    // Ship the placements logged since the previous Adopt. putChunk
    // logs a placement before it first suspends, so every chunk of
    // this build, uploaded here or by a concurrent pass, is logged by
    // now: in this delta or an earlier one, which the worker's FIFO
    // port delivered first.
    const auto &log = sharedStore->placements();
    adopt->placements.assign(
        log.begin() + static_cast<std::ptrdiff_t>(shippedPlacements),
        log.end());
    shippedPlacements = log.size();

    StoreReply r;
    r.kind = StoreReply::Adopt;
    r.adopt = adopt;
    for (auto &node : nodes)
        node->fromStore->send(r);
}

// --------------------------------------------------- worker domain

sim::Task<void>
ParallelFleet::stageHomeFunctions(int w)
{
    // Build-once staging: this worker prepares, records and ships
    // only the functions whose LocalityHash ring home it is; every
    // other function arrives as Adopt metadata from the store domain.
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];

    for (std::size_t i = 0; i < mix.size(); ++i) {
        const std::string &name = mix[i].profile.name;
        if (homeWorkerOf(name) != w)
            continue;
        StagedBuild build =
            co_await buildForStaging(*node.worker, name, cfg.coldStartMode);
        StoreMsg m;
        m.kind = StoreMsg::Stage;
        m.stage = std::make_shared<const StagePayload>(
            StagePayload{static_cast<int>(i), std::move(build)});
        node.toStore->send(m);
    }
}

sim::Task<void>
ParallelFleet::workerStorePump(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();

    while (true) {
        StoreReply r = co_await node.fromStore->recv();
        switch (r.kind) {
          case StoreReply::OpDone: {
            auto it = node.storePending.find(r.reqId);
            VHIVE_ASSERT(it != node.storePending.end());
            it->second->openGate();
            break;
          }
          case StoreReply::Adopt: {
            // Placements first: any cold start racing the adoption
            // must already group its batches by the true shard. The
            // deltas are disjoint, so every entry is new here.
            node.chunkHomes.reserve(node.chunkHomes.size() +
                                    r.adopt->placements.size());
            for (const auto &[hash, shard] : r.adopt->placements)
                node.chunkHomes.insert(hash, shard);
            const StagePayload &p = *r.adopt->stage;
            orch.adoptStagedArtifacts(
                mix[static_cast<std::size_t>(p.fnIdx)].profile.name,
                p.build.record, p.build.manifests);
            if (++node.adopted ==
                static_cast<std::int64_t>(mix.size()))
                node.allAdopted->openGate();
            break;
          }
          case StoreReply::Bye:
            co_return;
        }
    }
}

sim::Task<void>
ParallelFleet::workerMain(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    sim::Simulation &wsim = kernel.sim(1 + w);

    for (const auto &entry : mix)
        orch.registerFunction(entry.profile);

    if (cfg.sharedSnapshots) {
        wsim.spawn(workerStorePump(w));
        co_await stageHomeFunctions(w);
        // Staging already recorded each function once on its home
        // worker (the pre-record pass is redundant here); Ready waits
        // for the whole population so traffic never races adoption.
        co_await node.allAdopted->wait();
    } else {
        std::vector<std::string> names;
        for (const auto &entry : mix) {
            co_await orch.prepareSnapshot(entry.profile.name);
            names.push_back(entry.profile.name);
        }
        core::Orchestrator *self = &orch;
        (void)co_await recordOffWindow({&self, 1}, names,
                                       cfg.coldStartMode);
    }

    node.toControl->send(ControlMsg{ControlMsg::Ready});
    wsim.spawn(workerJanitor(w));

    while (true) {
        WorkerMsg msg = co_await node.fromControl->recv();
        if (msg.kind == WorkerMsg::Shutdown)
            break;
        ++node.liveInvokes;
        wsim.spawn(workerInvoke(w, msg));
    }

    // The control plane only shuts down once every reply gate has
    // resolved, so the worker is necessarily drained here.
    VHIVE_ASSERT(node.liveInvokes == 0);
    node.stopping = true;
    if (cfg.sharedSnapshots) {
        StoreMsg bye;
        bye.kind = StoreMsg::Bye;
        node.toStore->send(bye);
    }
    node.toControl->send(ControlMsg{ControlMsg::Bye});
}

sim::Task<void>
ParallelFleet::workerInvoke(int w, WorkerMsg msg)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    const std::string &name =
        mix[static_cast<std::size_t>(msg.fnIdx)].profile.name;
    Time &last_used = node.lastUsed[static_cast<std::size_t>(msg.fnIdx)];

    ControlMsg reply;
    reply.kind = ControlMsg::Done;
    reply.reqId = msg.reqId;
    reply.fnIdx = msg.fnIdx;
    if (msg.prefetch) {
        // Control-plane chunk prefetch: warm this worker's tier
        // caches ahead of the predicted window, shielding the bytes
        // from budget eviction until msg.pinUntil (the prefetch-
        // pinned policy's contract). No instance comes up and
        // keep-alive is untouched — only cache state moves.
        co_await orch.backgroundPrefetch(name, msg.pinUntil);
        reply.prefetch = true;
    } else if (msg.preWarm) {
        // Control-plane pre-warm: load an instance ahead of the
        // predicted arrival, don't serve anything.
        bool up = co_await preWarmInstance(orch, name, cfg.coldStartMode);
        if (up)
            last_used = kernel.sim(1 + w).now();
        reply.preWarm = true;
    } else {
        core::InvokeOptions opts;
        opts.keepWarm = true;
        auto bd = co_await orch.invoke(name, cfg.coldStartMode, opts);
        node.row.note(bd);

        // The worker keeps no pre-invoke locality flag: counting the
        // artifact as local leaves the decision to the mode and the
        // tier report.
        if (cfg.sharedSnapshots && bd.cold &&
            pulledStagedArtifact(cfg.coldStartMode, bd,
                                 /*artifacts_were_local=*/true))
            ++node.remoteFetches;
        last_used = kernel.sim(1 + w).now();
        reply.cold = bd.cold;
    }
    --node.liveInvokes;
    reply.idleNow = orch.idleInstanceCount(name);
    reply.chunkResidency = orch.chunkResidency(name);
    node.toControl->send(reply);
}

sim::Task<void>
ParallelFleet::workerJanitor(int w)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    sim::Simulation &wsim = kernel.sim(1 + w);

    while (!node.stopping) {
        co_await wsim.delay(cfg.scalePeriod);
        if (node.stopping)
            break;
        node.row.noteIdle(orch, cfg.scalePeriod);
        for (std::size_t fn = 0; fn < mix.size(); ++fn) {
            const std::string &name = mix[fn].profile.name;
            if (!keepAliveExpired(orch, name, node.lastUsed[fn],
                                  wsim.now(), cfg.keepAlive))
                continue;
            bool stopped = co_await scaleDownIdle(orch, name, node.row);
            if (stopped) {
                ControlMsg msg;
                msg.kind = ControlMsg::ScaledDown;
                msg.fnIdx = static_cast<int>(fn);
                msg.idleNow = orch.idleInstanceCount(name);
                node.toControl->send(msg);
            }
        }
    }
}

// --------------------------------------------------- control domain

sim::Task<void>
ParallelFleet::replyPump(int w, sim::Latch *ready)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    sim::Simulation &csim = kernel.sim(0);

    while (true) {
        ControlMsg msg = co_await node.toControl->recv();
        switch (msg.kind) {
          case ControlMsg::Ready:
            ready->arrive();
            break;
          case ControlMsg::Done: {
            auto it = pending.find(msg.reqId);
            VHIVE_ASSERT(it != pending.end());
            PendingReq &pr = it->second;
            Duration e2e = csim.now() - pr.t0;
            auto fn = static_cast<std::size_t>(msg.fnIdx);
            mirrorIdle[static_cast<std::size_t>(w)][fn] = msg.idleNow;
            if (msg.chunkResidency >= 0)
                mirrorResidency[static_cast<std::size_t>(w)][fn] =
                    msg.chunkResidency;
            // A prefetch or pre-warm is not an invocation: it refreshes
            // the mirror and frees its in-flight guard, nothing else.
            if (msg.prefetch) {
                prefetchInFlight[fn] = 0;
            } else if (msg.preWarm) {
                preWarmInFlight[fn] = 0;
            } else {
                --mirrorInFlight[static_cast<std::size_t>(w)];
                result.noteInvocation(e2e, msg.cold);
            }
            if (pr.done != nullptr)
                pr.done->openGate();
            pending.erase(it);
            if (drainGate && pending.empty())
                drainGate->openGate();
            break;
          }
          case ControlMsg::ScaledDown:
            mirrorIdle[static_cast<std::size_t>(w)]
                      [static_cast<std::size_t>(msg.fnIdx)] =
                msg.idleNow;
            break;
          case ControlMsg::Bye:
            co_return;
        }
    }
}

std::int64_t
ParallelFleet::dispatch(int fn_idx, sim::Gate *done)
{
    sim::Simulation &csim = kernel.sim(0);
    const std::string &name =
        mix[static_cast<std::size_t>(fn_idx)].profile.name;

    int widx = activePolicy->route(RouteContext{name, view});
    VHIVE_ASSERT(widx >= 0 && widx < cfg.workers);

    // Arrival history feeds prediction; pre-warms never land here,
    // so the policy only ever learns from real invocations.
    if (activeControl)
        activeControl->noteArrival(name, csim.now());

    std::int64_t id = nextReqId++;
    pending.emplace(id, PendingReq{csim.now(), done});

    // Optimistically claim the warm instance the route expects to
    // hit; the worker's Done reply re-syncs the true count.
    auto &idle = mirrorIdle[static_cast<std::size_t>(widx)]
                           [static_cast<std::size_t>(fn_idx)];
    if (idle > 0)
        --idle;
    ++mirrorInFlight[static_cast<std::size_t>(widx)];

    WorkerMsg msg;
    msg.kind = WorkerMsg::Invoke;
    msg.reqId = id;
    msg.fnIdx = fn_idx;
    nodes[static_cast<std::size_t>(widx)]->fromControl->send(msg);
    return id;
}

sim::Task<void>
ParallelFleet::arrivalLoop(int fn_idx)
{
    sim::Simulation &csim = kernel.sim(0);
    const AzureMixEntry &entry =
        mix[static_cast<std::size_t>(fn_idx)];
    Rng local = azureArrivalStream(cfg.workload.seed, entry.profile.name);
    Time deadline = csim.now() + cfg.workload.horizon;

    while (true) {
        Duration gap = static_cast<Duration>(local.exponential(
            static_cast<double>(entry.meanInterarrival)));
        if (csim.now() + gap >= deadline)
            break;
        co_await csim.delay(gap);

        sim::Gate gate(csim);
        (void)dispatch(fn_idx, &gate);
        co_await gate.wait(); // closed loop: next draw after reply
    }
}

sim::Task<void>
ParallelFleet::trafficArrivalLoop(int fn_idx)
{
    // Open loop: arrivals fire on the engine's schedule whether or
    // not earlier invocations completed, so burst events genuinely
    // pile onto the fleet (a closed loop would self-throttle exactly
    // when contention matters). Same streams as TrafficWorkload.
    sim::Simulation &csim = kernel.sim(0);
    Rng local = trafficEng->arrivalStream(fn_idx);
    Time start = csim.now();
    Duration t = 0;

    while (true) {
        t = trafficEng->nextArrival(fn_idx, t, local);
        if (t >= trafficEng->config().horizon)
            break;
        co_await csim.delay(start + t - csim.now());
        (void)dispatch(fn_idx, nullptr);
    }
}

sim::Task<void>
ParallelFleet::controlTickLoop()
{
    sim::Simulation &csim = kernel.sim(0);
    std::vector<std::string> names;
    for (const AzureMixEntry &entry : mix)
        names.push_back(entry.profile.name);

    while (!controlStopping) {
        co_await csim.delay(cfg.scalePeriod);
        if (controlStopping)
            break;

        // Pre-warms and prefetches travel to workers as tracked
        // requests; ScaleHint is still a sequential-Cluster verb.
        std::vector<ControlAction> actions;
        activeControl->tick(
            controlTickSnapshot(view, result, csim.now(), names),
            actions);
        for (const ControlAction &a : actions) {
            bool prefetch = a.kind == ControlAction::Kind::Prefetch;
            if (a.kind != ControlAction::Kind::PreWarm && !prefetch)
                continue;
            auto it = fnIndex.find(a.function);
            if (it == fnIndex.end())
                continue;
            std::size_t fn = it->second;
            if (prefetch ? prefetchInFlight[fn] != 0
                         : preWarmInFlight[fn] != 0)
                continue;
            int widx = a.worker;
            if (widx < 0 || widx >= cfg.workers)
                widx = homeWorkerOf(a.function);
            if (prefetch)
                prefetchInFlight[fn] = 1;
            else
                preWarmInFlight[fn] = 1;

            // First-class pending request: the shutdown drain waits
            // for its Done like any invocation, so workers never see
            // traffic after Shutdown. It does not claim mirror state.
            std::int64_t id = nextReqId++;
            pending.emplace(id, PendingReq{csim.now(), nullptr});

            WorkerMsg msg;
            msg.kind = WorkerMsg::Invoke;
            msg.reqId = id;
            msg.fnIdx = static_cast<int>(fn);
            msg.preWarm = !prefetch;
            msg.prefetch = prefetch;
            msg.pinUntil = a.until;
            nodes[static_cast<std::size_t>(widx)]->fromControl->send(
                msg);
        }
    }
}

sim::Task<void>
ParallelFleet::controlMain()
{
    sim::Simulation &csim = kernel.sim(0);

    sim::Latch ready(csim, cfg.workers);
    sim::Latch byes(csim, 0);
    for (int w = 0; w < cfg.workers; ++w)
        byes.spawn(replyPump(w, &ready));
    co_await ready.wait();

    if (activeControl)
        csim.spawn(controlTickLoop());

    sim::Latch loops(csim, 0);
    for (std::size_t fn = 0; fn < mix.size(); ++fn)
        loops.spawn(trafficEng ? trafficArrivalLoop(static_cast<int>(fn))
                               : arrivalLoop(static_cast<int>(fn)));
    co_await loops.wait();

    // Stop issuing control actions before draining: a tick runs
    // synchronously within one resumption, so after this flag no
    // pre-warm can slip in between drain and Shutdown. Pre-warms
    // already in flight are pending entries the drain waits out.
    controlStopping = true;

    if (!pending.empty()) {
        // Open-loop stragglers: wait for every in-flight request's
        // Done before asking workers to shut down.
        drainGate = std::make_unique<sim::Gate>(csim);
        co_await drainGate->wait();
    }

    for (auto &node : nodes)
        node->fromControl->send(WorkerMsg{WorkerMsg::Shutdown});
    co_await byes.wait();
}

FleetStats
ParallelFleet::run()
{
    for (int w = 0; w < cfg.workers; ++w)
        kernel.sim(1 + w).spawn(workerMain(w));
    if (cfg.sharedSnapshots)
        for (int w = 0; w < cfg.workers; ++w)
            kernel.sim(storeDomain()).spawn(storePump(w));
    kernel.sim(0).spawn(controlMain());

    kernel.run();

    result.workers = cfg.workers;
    result.eventsProcessed = kernel.totalEventsProcessed();
    result.windows = kernel.stats().windows;
    result.messages = kernel.stats().messages;
    for (int w = 0; w < cfg.workers; ++w) {
        const WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
        result.remoteArtifactFetches += node.remoteFetches;
        // Every worker-held field, economics included, goes into the
        // result (and thus the digest), so the thread-count identity
        // covers eviction, pinning and SSD GC decisions.
        addWorkerFold(result, w, *node.worker, node.row,
                      cfg.sharedSnapshots);
    }
    if (cfg.sharedSnapshots) {
        addRegistryStaging(result, *registry);
        result.store = sharedStore->stats();
        result.storeShards = sharedStore->shardStats();
    }
    return result;
}

} // namespace vhive::cluster

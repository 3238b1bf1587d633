#include "cluster/parallel_fleet.hh"

#include "core/loader/builtin_loaders.hh"
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
        fnIndex[mix[i].profile.name] = static_cast<int>(i);

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
        if (cfg.registryChunkBudget > 0)
            fleetChunks.setBudget(cfg.registryChunkBudget,
                                  cfg.registryEvictionPolicy,
                                  /*refcount_protected=*/true);
        if (!cfg.storeFaults.empty()) {
            // The store domain draws its own deterministic fault
            // stream (FaultPlan is not thread-safe across domains),
            // under the same "store/shared[/<s>]" tags the sequential
            // Cluster uses.
            sharedFaults = std::make_unique<sim::FaultPlan>(
                cfg.faultSeed +
                static_cast<std::uint64_t>(cfg.workers));
            for (const sim::FaultSpec &spec : cfg.storeFaults)
                sharedFaults->add(spec);
            sharedStore->setFaultPlan(sharedFaults.get(),
                                      "store/shared");
        }
    }

    nodes.reserve(static_cast<std::size_t>(cfg.workers));
    for (int w = 0; w < cfg.workers; ++w) {
        auto node = std::make_unique<WorkerNode>();
        node->fromControl =
            std::make_unique<sim::CrossPort<WorkerMsg>>(
                kernel, kernel.domain(0), kernel.domain(1 + w),
                cfg.fabricHop);
        node->toControl =
            std::make_unique<sim::CrossPort<ControlMsg>>(
                kernel, kernel.domain(1 + w), kernel.domain(0),
                cfg.fabricHop);
        if (cfg.sharedSnapshots) {
            // Store ports + client must exist before the Worker: the
            // worker's loaders capture the client as their artifact
            // store.
            node->toStore =
                std::make_unique<sim::CrossPort<StoreMsg>>(
                    kernel, kernel.domain(1 + w),
                    kernel.domain(storeDomain()), cfg.fabricHop);
            node->fromStore =
                std::make_unique<sim::CrossPort<StoreReply>>(
                    kernel, kernel.domain(storeDomain()),
                    kernel.domain(1 + w), cfg.fabricHop);
            node->storeClient =
                std::make_unique<StorePortClient>(*this, w);
            node->allAdopted =
                std::make_unique<sim::Gate>(kernel.sim(1 + w));
        }
        node->worker = std::make_unique<core::Worker>(
            kernel.sim(1 + w), cfg.workerConfig(w),
            node->storeClient.get());
        node->lastUsed.assign(mix.size(), 0);
        if (!cfg.storeFaults.empty()) {
            // One plan per domain (FaultPlan is not thread-safe),
            // seeded per worker so domains draw independent but
            // deterministic fault streams for any simThreads.
            node->faults = std::make_unique<sim::FaultPlan>(
                cfg.faultSeed + static_cast<std::uint64_t>(w));
            for (const sim::FaultSpec &spec : cfg.storeFaults)
                node->faults->add(spec);
            node->worker->objectStore().setFaultPlan(
                node->faults.get(),
                "store/worker/" + std::to_string(w));
        }
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
    auto it = fleet.fnIndex.find(name);
    if (it == fleet.fnIndex.end())
        return 0;
    return fleet.mirrorIdle[static_cast<std::size_t>(worker)]
                           [static_cast<std::size_t>(it->second)];
}

std::int64_t
ParallelFleet::MirrorView::inFlight(int worker) const
{
    return fleet.mirrorInFlight[static_cast<std::size_t>(worker)];
}

Bytes
ParallelFleet::MirrorView::residentBytes(int) const
{
    // The mirror does not track instance memory; load-aware policies
    // in this build consult idle/in-flight counters only.
    return 0;
}

bool
ParallelFleet::MirrorView::artifactsLocal(
    int worker, const std::string &name) const
{
    // Without the shared registry snapshots are prepared on every
    // worker, so artifacts are always local. With it, only the home
    // worker built locally; everyone else pulls through the store on
    // first cold start — the one-hop-stale approximation a mirrored
    // front-end would hold (it cannot see later re-localization).
    return !fleet.cfg.sharedSnapshots ||
           worker == fleet.homeWorkerOf(name);
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
    auto it = node.chunkHomes.find(key.content);
    if (it != node.chunkHomes.end())
        return it->second;
    return net::hashShardOf(key.content, fleet.cfg.sharedStoreShards);
}

int
ParallelFleet::StorePortClient::shardCount() const
{
    return fleet.cfg.sharedStoreShards;
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
    const StagePayload &p = *msg.stage;
    const std::string &name =
        mix[static_cast<std::size_t>(p.fnIdx)].profile.name;
    std::uint64_t scope = net::placementScope(name);

    auto adopt = std::make_shared<AdoptPayload>();
    adopt->fnIdx = p.fnIdx;
    adopt->record = p.record;
    adopt->manifests = p.manifests;

    ++result.snapshotBuilds;
    if (p.manifests) {
        // Chunked staging: upload only chunks no earlier function
        // staged; duplicates are referenced in the fleet index and
        // never cross the wire again.
        core::ChunkStageTally tally = co_await core::stageChunks(
            kernel.sim(storeDomain()), *p.manifests, fleetChunks,
            *sharedStore, scope);
        result.stagedBytes += tally.uploadedBytes;
        result.chunksUploaded += tally.uploaded;
        result.dedupSavedBytes += tally.savedBytes;
        result.chunksDeduped += tally.total - tally.uploaded;
        // Every chunk's placement rides the Adopt broadcast so workers
        // group future batches by the true owning shard. putChunk
        // records a placement before it first suspends, so every
        // chunk — uploaded here or by a concurrent pass — has its
        // final placement by now.
        for (const storage::ChunkManifest *man :
             {&p.manifests->vmmState, &p.manifests->ws})
            for (const storage::ChunkRef &c : man->chunks)
                adopt->placements.emplace_back(
                    c.hash, sharedStore->shardOf({c.hash, scope}));
    } else {
        // Blob staging: one put() of VMM state + WS file serves the
        // whole fleet.
        co_await sharedStore->put(p.blobBytes, {scope, scope});
        result.stagedBytes += p.blobBytes;
    }

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
    auto &orch = node.worker->orchestrator();

    for (std::size_t i = 0; i < mix.size(); ++i) {
        const std::string &name = mix[i].profile.name;
        if (homeWorkerOf(name) != w)
            continue;
        co_await orch.prepareSnapshot(name);
        if (!orch.hasRecord(name)) {
            core::InvokeOptions opts;
            opts.forceCold = true;
            (void)co_await orch.invoke(name, cfg.coldStartMode,
                                       opts);
        }
        auto payload = std::make_shared<StagePayload>();
        payload->fnIdx = static_cast<int>(i);
        payload->record = orch.record(name);
        if (core::loader::sharedStagingPreset(cfg.coldStartMode)
                .backstop ==
            core::loader::TieredPreset::Backstop::Chunked) {
            (void)orch.buildManifests(name);
            payload->manifests = orch.manifests(name);
        } else {
            payload->blobBytes = core::stagedArtifactBytes(
                node.worker->config().vmm.vmmStateSize,
                orch.record(name));
        }
        StoreMsg m;
        m.kind = StoreMsg::Stage;
        m.stage = std::move(payload);
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
            // must already group its batches by the true shard.
            for (const auto &[hash, shard] : r.adopt->placements)
                node.chunkHomes.emplace(hash, shard);
            orch.adoptStagedArtifacts(
                mix[static_cast<std::size_t>(r.adopt->fnIdx)]
                    .profile.name,
                r.adopt->record, r.adopt->manifests);
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
        for (const auto &entry : mix)
            co_await orch.prepareSnapshot(entry.profile.name);

        bool mode_needs_record = orch.loaders()
                                     .loaderFor(cfg.coldStartMode)
                                     .needsRecord();
        if (cfg.workload.preRecordWorkingSets && mode_needs_record) {
            // One record-phase invocation per function, off the
            // measured window — mirrors AzureWorkload::run's
            // pre-record pass.
            for (const auto &entry : mix) {
                orch.flushHostCaches();
                core::InvokeOptions opts;
                opts.forceCold = true;
                (void)co_await orch.invoke(entry.profile.name,
                                           cfg.coldStartMode, opts);
            }
        }
    }

    node.toControl->send(ControlMsg{ControlMsg::Ready, 0, 0, false,
                                    0, 0});
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
    node.toControl->send(ControlMsg{ControlMsg::Bye, 0, 0, false,
                                    0, 0});
}

sim::Task<void>
ParallelFleet::workerInvoke(int w, WorkerMsg msg)
{
    WorkerNode &node = *nodes[static_cast<std::size_t>(w)];
    auto &orch = node.worker->orchestrator();
    const std::string &name =
        mix[static_cast<std::size_t>(msg.fnIdx)].profile.name;

    if (msg.prefetch) {
        // Control-plane chunk prefetch: warm this worker's tier
        // caches ahead of the predicted window, shielding the bytes
        // from budget eviction until msg.pinUntil (the prefetch-
        // pinned policy's contract). No instance comes up and
        // keep-alive is untouched — only cache state moves.
        co_await orch.backgroundPrefetch(name, msg.pinUntil);
        --node.liveInvokes;

        ControlMsg reply;
        reply.kind = ControlMsg::Done;
        reply.reqId = msg.reqId;
        reply.fnIdx = msg.fnIdx;
        reply.prefetch = true;
        reply.idleNow = orch.idleInstanceCount(name);
        reply.chunkResidency = orch.chunkResidency(name);
        node.toControl->send(reply);
        co_return;
    }

    if (msg.preWarm) {
        // Control-plane pre-warm: load an instance ahead of the
        // predicted arrival, don't serve anything. Refresh keep-alive
        // only when an instance actually came up — a no-op or crashed
        // pre-warm must not extend a dead function's residency.
        auto pbd = co_await orch.preWarm(
            name, core::loader::preWarmModeFor(cfg.coldStartMode));
        if (pbd.total > 0 && !pbd.crashed)
            node.lastUsed[static_cast<std::size_t>(msg.fnIdx)] =
                kernel.sim(1 + w).now();
        --node.liveInvokes;

        ControlMsg reply;
        reply.kind = ControlMsg::Done;
        reply.reqId = msg.reqId;
        reply.fnIdx = msg.fnIdx;
        reply.preWarm = true;
        reply.idleNow = orch.idleInstanceCount(name);
        reply.chunkResidency = orch.chunkResidency(name);
        node.toControl->send(reply);
        co_return;
    }

    core::InvokeOptions opts;
    opts.keepWarm = true;
    auto bd = co_await orch.invoke(name, cfg.coldStartMode, opts);

    if (cfg.sharedSnapshots && bd.cold) {
        // Same detection as Cluster::invoke: a mode without local
        // tiers always re-fetches; tiered chains report which tier
        // actually served the WS bytes.
        bool fetched =
            core::loader::sharedStagingPreset(cfg.coldStartMode).tiers ==
            core::loader::TieredPreset::Tiers::None;
        for (const auto &t : bd.tierHits)
            if (t.tier == "remote")
                fetched = t.bytes > 0;
        if (fetched)
            ++node.remoteFetches;
    }

    node.lastUsed[static_cast<std::size_t>(msg.fnIdx)] =
        kernel.sim(1 + w).now();
    --node.liveInvokes;

    ControlMsg reply;
    reply.kind = ControlMsg::Done;
    reply.reqId = msg.reqId;
    reply.fnIdx = msg.fnIdx;
    reply.cold = bd.cold;
    reply.preWarmHit = bd.preWarmHit;
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
        for (std::size_t fn = 0; fn < mix.size(); ++fn) {
            const std::string &name = mix[fn].profile.name;
            if (orch.idleInstanceCount(name) == 0)
                continue;
            if (wsim.now() - node.lastUsed[fn] < cfg.keepAlive)
                continue;
            std::int64_t stopped =
                co_await orch.stopIdleInstances(name);
            if (stopped > 0) {
                ++node.scaleDowns;
                ControlMsg msg;
                msg.kind = ControlMsg::ScaledDown;
                msg.fnIdx = static_cast<int>(fn);
                msg.idleNow = orch.idleInstanceCount(name);
                msg.stopped = stopped;
                node.toControl->send(msg);
            }
        }
    }
}

// --------------------------------------------------- control domain

sim::Task<void>
ParallelFleet::replyPump(int w, sim::Latch *ready, sim::Latch *byes)
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
            mirrorIdle[static_cast<std::size_t>(w)]
                      [static_cast<std::size_t>(msg.fnIdx)] =
                msg.idleNow;
            if (msg.chunkResidency >= 0)
                mirrorResidency[static_cast<std::size_t>(w)]
                               [static_cast<std::size_t>(msg.fnIdx)] =
                    msg.chunkResidency;
            if (msg.prefetch) {
                // A prefetch only moved cache bytes: free the
                // in-flight guard and count it; no invocation, no
                // instance accounting.
                prefetchInFlight[static_cast<std::size_t>(
                    msg.fnIdx)] = 0;
                ++result.bgPrefetches;
            } else if (msg.preWarm) {
                // A pre-warm is not an invocation: it refreshes the
                // mirror and frees the in-flight guard, nothing else.
                preWarmInFlight[static_cast<std::size_t>(msg.fnIdx)] =
                    0;
                ++result.preWarms;
            } else {
                --mirrorInFlight[static_cast<std::size_t>(w)];
                ++result.invocations;
                result.e2eLatencyMs.add(toMs(e2e));
                if (msg.preWarmHit)
                    ++result.preWarmHits;
                if (msg.cold) {
                    ++result.coldStarts;
                    result.coldE2eMs.add(toMs(e2e));
                } else {
                    ++result.warmHits;
                    result.warmE2eMs.add(toMs(e2e));
                }
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
            byes->arrive();
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
    PendingReq pr;
    pr.t0 = csim.now();
    pr.fnIdx = fn_idx;
    pr.worker = widx;
    pr.done = done;
    pending.emplace(id, pr);

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
ParallelFleet::arrivalLoop(int fn_idx, sim::Latch *done)
{
    sim::Simulation &csim = kernel.sim(0);
    const AzureMixEntry &entry =
        mix[static_cast<std::size_t>(fn_idx)];
    // Same arrival stream construction as AzureWorkload::arrivalLoop.
    Rng local(cfg.workload.seed,
              "azure-arrivals/" + entry.profile.name);
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
    done->arrive();
}

sim::Task<void>
ParallelFleet::trafficArrivalLoop(int fn_idx, sim::Latch *done)
{
    // Open loop: arrivals fire on the engine's schedule whether or
    // not earlier invocations completed, so burst events genuinely
    // pile onto the fleet (a closed loop would self-throttle exactly
    // when contention matters). Same stream names as TrafficWorkload.
    sim::Simulation &csim = kernel.sim(0);
    const std::string &name =
        mix[static_cast<std::size_t>(fn_idx)].profile.name;
    Rng local(trafficEng->config().seed, "traffic-arrivals/" + name);
    Time start = csim.now();
    Duration t = 0;

    while (true) {
        t = trafficEng->nextArrival(fn_idx, t, local);
        if (t >= trafficEng->config().horizon)
            break;
        co_await csim.delay(start + t - csim.now());
        (void)dispatch(fn_idx, nullptr);
    }
    done->arrive();
}

sim::Task<void>
ParallelFleet::controlTickLoop()
{
    sim::Simulation &csim = kernel.sim(0);

    while (!controlStopping) {
        co_await csim.delay(cfg.controlPeriod);
        if (controlStopping)
            break;

        ControlTickContext ctx;
        ctx.now = csim.now();
        ctx.workers = cfg.workers;
        if (result.coldE2eMs.count() > 0)
            ctx.coldP99Ms = result.coldE2eMs.percentile(99);
        ctx.coldStarts = result.coldStarts;
        ctx.functions.reserve(mix.size());
        for (std::size_t fn = 0; fn < mix.size(); ++fn) {
            const std::string &name = mix[fn].profile.name;
            ControlFunctionView v;
            v.name = name;
            v.homeWorker = homeWorkerOf(name);
            for (int w = 0; w < cfg.workers; ++w)
                v.idleInstances +=
                    mirrorIdle[static_cast<std::size_t>(w)][fn];
            v.warming =
                preWarmInFlight[fn] != 0 || prefetchInFlight[fn] != 0;
            // One-hop-stale residency mirror, refreshed by every Done
            // reply: low residency on the home worker lets the policy
            // emit Prefetch actions, which (unlike ScaleHint, still a
            // sequential-Cluster verb) now travel to workers as
            // first-class tracked requests.
            v.homeChunkResidency =
                mirrorResidency[static_cast<std::size_t>(
                    v.homeWorker)][fn];
            ctx.functions.push_back(std::move(v));
        }

        std::vector<ControlAction> actions;
        activeControl->tick(ctx, actions);
        for (const ControlAction &a : actions) {
            bool prefetch = a.kind == ControlAction::Kind::Prefetch;
            if (a.kind != ControlAction::Kind::PreWarm && !prefetch)
                continue;
            auto it = fnIndex.find(a.function);
            if (it == fnIndex.end())
                continue;
            auto fn = static_cast<std::size_t>(it->second);
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
            PendingReq pr;
            pr.t0 = csim.now();
            pr.fnIdx = static_cast<int>(fn);
            pr.worker = widx;
            pr.preWarm = !prefetch;
            pr.prefetch = prefetch;
            pending.emplace(id, pr);

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
    sim::Latch byes(csim, cfg.workers);
    for (int w = 0; w < cfg.workers; ++w)
        csim.spawn(replyPump(w, &ready, &byes));
    co_await ready.wait();

    if (activeControl)
        csim.spawn(controlTickLoop());

    sim::Latch done(csim, static_cast<std::int64_t>(mix.size()));
    for (std::size_t fn = 0; fn < mix.size(); ++fn)
        csim.spawn(trafficEng
                       ? trafficArrivalLoop(static_cast<int>(fn),
                                            &done)
                       : arrivalLoop(static_cast<int>(fn), &done));
    co_await done.wait();

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
        node->fromControl->send(
            WorkerMsg{WorkerMsg::Shutdown, 0, 0});
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
    for (const auto &node : nodes) {
        result.scaleDowns += node->scaleDowns;
        // Economics counters: fold every budget-path observable into
        // the result (and thus the digest) so the thread-count
        // identity covers eviction, pinning and SSD GC decisions.
        addWorkerEconomics(result, node->worker->orchestrator());
    }
    if (cfg.sharedSnapshots) {
        result.fleetChunkPeakBytes = fleetChunks.stats().peakStoredBytes;
        result.fleetChunkBudgetEvictions =
            fleetChunks.stats().budgetEvictions;
        for (const auto &node : nodes)
            result.remoteArtifactFetches += node->remoteFetches;
        result.store = sharedStore->stats();
        result.storeShards = sharedStore->shardStats();
    }
    return result;
}

} // namespace vhive::cluster

#include "core/orchestrator.hh"

#include <algorithm>

#include "core/loader/builtin_loaders.hh"
#include "mem/page_fetch.hh"
#include "util/logging.hh"

namespace vhive::core {

const char *
coldStartModeName(ColdStartMode mode)
{
    switch (mode) {
      case ColdStartMode::BootFromScratch: return "boot";
      case ColdStartMode::VanillaSnapshot: return "vanilla";
      case ColdStartMode::ParallelPageFaults: return "parallel-pf";
      case ColdStartMode::WsFileCached: return "ws-file";
      case ColdStartMode::Reap: return "reap";
      case ColdStartMode::RemoteReap: return "reap-remote";
      case ColdStartMode::TieredReap: return "reap-tiered";
      case ColdStartMode::DedupReap: return "reap-dedup";
      case ColdStartMode::BackgroundWarm: return "bg-warm";
    }
    return "?";
}

Orchestrator::Orchestrator(sim::Simulation &sim, storage::FileStore &fs,
                           host::CpuPool &host_cpus,
                           host::CpuPool &orch_cpus,
                           net::ObjectStore &object_store,
                           const func::TraceGenerator &gen,
                           vmm::VmmParams vmm_params, ReapOptions reap,
                           mem::UffdParams uffd_params,
                           net::ArtifactStore *artifact_store)
    : sim(sim), fs(fs), hostCpus(host_cpus), orchCpus(orch_cpus),
      objectStore(object_store),
      artifactStore(artifact_store != nullptr ? *artifact_store
                                              : object_store),
      gen(gen), vmmParams(vmm_params), reap(reap),
      uffdParams(uffd_params)
{
    // Cache-economics knobs: zero budgets leave every store/tracker
    // in pure-accounting mode (bit-identical to unbudgeted builds).
    _localChunks.setBudget(this->reap.chunkCacheBudget,
                           this->reap.evictionPolicy,
                           /*refcount_protected=*/false);
    _tierBudget.setBudget(this->reap.pageCacheBudget,
                          this->reap.evictionPolicy);
}

void
Orchestrator::registerFunction(const func::FunctionProfile &profile)
{
    VHIVE_ASSERT(!profile.name.empty());
    if (functions.count(profile.name))
        fatal("function %s already registered", profile.name.c_str());
    FunctionState st;
    st.profile = profile;
    functions.emplace(profile.name, std::move(st));
}

bool
Orchestrator::hasFunction(const std::string &name) const
{
    return functions.count(name) > 0;
}

FunctionState &
Orchestrator::state(const std::string &name)
{
    auto it = functions.find(name);
    if (it == functions.end())
        fatal("function %s is not registered", name.c_str());
    return it->second;
}

const FunctionState &
Orchestrator::state(const std::string &name) const
{
    auto it = functions.find(name);
    if (it == functions.end())
        fatal("function %s is not registered", name.c_str());
    return it->second;
}

sim::Task<void>
Orchestrator::prepareSnapshot(const std::string &name)
{
    FunctionState &st = state(name);
    if (st.hasSnapshot)
        co_return;
    st.ensureRootfs(fs);
    st.snapshot.vmmState =
        fs.createFile(name + "/vmm_state", vmmParams.vmmStateSize);
    st.snapshot.guestMemory =
        fs.createFile(name + "/guest_mem", st.profile.vmMemory);

    auto vm = std::make_unique<vmm::MicroVm>(sim, fs, hostCpus,
                                             st.profile, vmmParams);
    co_await vm->bootFromScratch(gen.boot(st.profile), st.rootfs,
                                 st.profile.rootfsBootRead);
    co_await vm->createSnapshot(st.snapshot);
    st.hasSnapshot = true;
    ++_snapshotBuilds;
    // The booted instance is discarded: snapshots make keeping it
    // memory-resident unnecessary.
}

void
Orchestrator::adoptStagedArtifacts(
    const std::string &name, const WorkingSetRecord &record,
    std::shared_ptr<const vmm::SnapshotManifests> manifests)
{
    FunctionState &st = state(name);
    // The registry's staging pass (or its delta restage) owns the
    // version handoff: any previous-version manifests this worker
    // still retains are stale — their references (held only when this
    // worker staged them itself) go now, not at the next re-record.
    if (st.prevManifests) {
        _stagedChunks.releaseManifest(st.prevManifests->vmmState);
        _stagedChunks.releaseManifest(st.prevManifests->ws);
        st.prevManifests.reset();
    }
    if (st.recorded) {
        // The building worker: artifacts already exist locally, the
        // registry's put() just made them shared.
        st.remoteStaged = true;
        st.manifests = std::move(manifests);
        return;
    }
    st.manifests = std::move(manifests);
    if (!st.hasSnapshot) {
        st.snapshot.vmmState = fs.createFile(name + "/vmm_state",
                                             vmmParams.vmmStateSize);
        st.snapshot.guestMemory =
            fs.createFile(name + "/guest_mem", st.profile.vmMemory);
        st.hasSnapshot = true;
    }
    st.record = record;
    st.recorded = true;
    st.ensureArtifactFiles(fs);
    st.remoteStaged = true;
    // The bytes live only in the shared store until a cold start pulls
    // them through the remote tier and admission re-localizes them.
    st.evictLocalArtifacts(fs);
}

std::int64_t
Orchestrator::pickInput(FunctionState &st, const InvokeOptions &opts)
{
    if (opts.inputId >= 0)
        return opts.inputId;
    return st.nextInput++;
}

Instance &
Orchestrator::createInstance(FunctionState &st)
{
    st.instances.push_back(std::make_unique<Instance>());
    Instance &inst = *st.instances.back();
    inst.id = ++_nextInstanceId;
    inst.vm = std::make_unique<vmm::MicroVm>(sim, fs, hostCpus,
                                             st.profile, vmmParams);
    return inst;
}

sim::Task<LatencyBreakdown>
Orchestrator::invoke(const std::string &name, ColdStartMode mode,
                     InvokeOptions opts)
{
    FunctionState &st = state(name);
    if (opts.flushPageCache)
        fs.dropCaches();

    if (!opts.forceCold) {
        for (auto &inst : st.instances) {
            if (inst->servable()) {
                // Warm path. The guest buddy allocator reuses the
                // same guest-physical frames across invocations on a
                // live instance (Sec. 4.4), so by default a warm
                // invocation replays the instance's last input layout
                // and touches only resident pages. An explicit
                // inputId overrides this (e.g. to study drift).
                std::int64_t input = opts.inputId >= 0
                                         ? opts.inputId
                                         : inst->lastInput;
                if (input < 0)
                    input = pickInput(st, opts);
                inst->lastInput = input;
                co_return co_await invokeWarm(
                    st, *inst, gen.invocation(st.profile, input));
            }
        }
        if (!opts.warmupOnly) {
            for (auto &inst : st.instances) {
                if (!inst->warming || !inst->readyGate)
                    continue;
                // A control-plane pre-warm is mid-flight: ride it
                // instead of paying a full cold start. The gate's
                // shared_ptr and the never-reused id survive the wait
                // even if the instance is torn down (crash) meanwhile.
                auto gate = inst->readyGate;
                std::uint64_t id = inst->id;
                co_await gate->wait();
                Instance *cand = nullptr;
                for (auto &i2 : st.instances) {
                    if (i2->id == id) {
                        cand = i2.get();
                        break;
                    }
                }
                if (cand != nullptr && cand->servable()) {
                    std::int64_t input = opts.inputId >= 0
                                             ? opts.inputId
                                             : cand->lastInput;
                    if (input < 0)
                        input = pickInput(st, opts);
                    cand->lastInput = input;
                    co_return co_await invokeWarm(
                        st, *cand, gen.invocation(st.profile, input));
                }
                break; // pre-warm died; fall through to a cold start
            }
        }
    }

    std::int64_t input = pickInput(st, opts);
    func::InvocationTrace trace = gen.invocation(st.profile, input);

    // Cold start: control-plane handling (CRI request, bookkeeping),
    // then dispatch to the strategy registered for the mode.
    Time cold_t0 = sim.now();
    co_await orchCpus.exec(kControlPlaneCost);

    loader::SnapshotLoader &ld = _loaders.loaderFor(mode);

    if (memoryCapacity > 0)
        co_await makeRoom(ld.expectedResidency(st));

    if (ld.needsSnapshot() && !st.hasSnapshot)
        fatal("%s: no snapshot; call prepareSnapshot first",
              name.c_str());

    Instance &inst = createInstance(st);
    inst.lastInput = input;
    if (opts.warmupOnly) {
        inst.warming = true;
        inst.readyGate = std::make_shared<sim::Gate>(sim);
    }

    if (faults != nullptr) {
        // Worker crash mid-cold-start: the window's magnitude is the
        // milliseconds of work lost before the crash is detected. The
        // instance is torn down and the breakdown reports crashed so
        // the cluster layer can retry; this is NOT counted as a cold
        // invocation served.
        if (const sim::FaultWindow *w = faults->roll(
                sim::FaultKind::WorkerCrash, faultTag, sim.now())) {
            ++faults->stats().workerCrashes;
            ++st.stats.crashes;
            co_await sim.delay(msec(w->magnitude));
            // Open the ready gate after teardown so an invoke waiting
            // on this pre-warm wakes, fails to re-locate the instance,
            // and falls through to its own cold start.
            auto ready = inst.readyGate;
            co_await stopInstanceByPtr(st, &inst);
            if (ready)
                ready->openGate();
            LatencyBreakdown crashed_bd;
            crashed_bd.cold = true;
            crashed_bd.crashed = true;
            crashed_bd.total = sim.now() - cold_t0;
            co_return crashed_bd;
        }
    }

    loader::LoadContext ctx{sim,        fs,    hostCpus, objectStore,
                            gen,        vmmParams, reap, uffdParams,
                            st,         inst,  trace,    opts,
                            _localChunks,      _stagedChunks,
                            artifactStore,     _chunkFlights,
                            &_tierBudget};

    LatencyBreakdown bd;
    ++st.activeColds; // shield the artifacts from the SSD budget
    if (ld.needsRecord() && !st.recorded)
        bd = co_await _loaders.recordLoader().load(ctx);
    else
        bd = co_await ld.load(ctx);
    --st.activeColds;
    if (st.artifactsLocal) {
        st.artifactLruSeq = ++_artifactLru;
        enforceSsdBudget(sim.now());
    }

    if (opts.warmupOnly) {
        // Pre-warm complete: the instance sits warm and idle, the
        // gate releases any invoke that arrived mid-warm. Counted as
        // a pre-warm, not a served cold invocation.
        inst.warming = false;
        inst.preWarmed = true;
        inst.readyGate->openGate();
        ++st.stats.preWarms;
    } else {
        ++st.stats.coldInvocations;
    }
    bd.cold = true;
    inst.lastUsedAt = sim.now();
    bd.wastedPrefetch =
        st.recorded && bd.prefetchedPages > 0
            ? st.record.wastedAgainst(trace.touchedSet())
            : 0;

    if (!opts.keepWarm)
        co_await stopInstanceByPtr(st, &inst);
    co_return bd;
}

sim::Task<LatencyBreakdown>
Orchestrator::invokeWarm(FunctionState &st,
                         Instance &inst,
                         const func::InvocationTrace &trace)
{
    inst.busy = true;
    LatencyBreakdown bd;
    if (inst.preWarmed) {
        inst.preWarmed = false;
        bd.preWarmHit = true;
        ++st.stats.preWarmHits;
    }
    Time t0 = sim.now();
    auto res = co_await inst.vm->serveInvocation(trace, &objectStore);
    bd.connRestore = res.connRestore;
    bd.processing = res.processing;
    bd.majorFaults = res.majorFaults;
    bd.total = sim.now() - t0;
    bd.cold = false;
    inst.busy = false;
    inst.lastUsedAt = sim.now();
    ++st.stats.warmInvocations;
    co_return bd;
}

sim::Task<void>
Orchestrator::makeRoom(Bytes needed)
{
    while (totalResidentBytes() + needed > memoryCapacity) {
        // Find the least-recently-used idle instance fleet-wide.
        FunctionState *victim_st = nullptr;
        size_t victim_idx = 0;
        Time oldest = 0;
        bool found = false;
        for (auto &entry : functions) {
            auto &st = entry.second;
            for (size_t i = 0; i < st.instances.size(); ++i) {
                Instance &inst = *st.instances[i];
                if (inst.busy || inst.stopping)
                    continue;
                if (!found || inst.lastUsedAt < oldest) {
                    oldest = inst.lastUsedAt;
                    victim_st = &st;
                    victim_idx = i;
                    found = true;
                }
            }
        }
        if (!found)
            co_return; // nothing evictable; admit over budget
        co_await stopInstance(*victim_st, victim_idx);
        ++_capacityEvictions;
    }
}

sim::Task<void>
Orchestrator::stopInstance(FunctionState &st, size_t index)
{
    VHIVE_ASSERT(index < st.instances.size());
    Instance &inst = *st.instances[index];
    VHIVE_ASSERT(!inst.busy && !inst.stopping);
    if (inst.preWarmed)
        ++_wastedPreWarms;
    std::uint64_t id = inst.id;
    if (inst.uffd && inst.monitor) {
        // Claim the instance before suspending: the warm paths skip a
        // stopping instance, so no invocation can start serving on it
        // during the handshake.
        inst.stopping = true;
        inst.uffd->sendShutdown();
        co_await inst.monitor->doneGate().wait();
    }
    // Other instances may have come and gone during the handshake:
    // re-locate this one by id.
    auto it = std::find_if(st.instances.begin(), st.instances.end(),
                           [id](const auto &i) { return i->id == id; });
    VHIVE_ASSERT(it != st.instances.end());
    st.instances.erase(it);
}

sim::Task<void>
Orchestrator::stopInstanceByPtr(FunctionState &st, Instance *inst)
{
    for (size_t i = 0; i < st.instances.size(); ++i) {
        if (st.instances[i].get() == inst) {
            co_await stopInstance(st, i);
            co_return;
        }
    }
    panic("stopInstanceByPtr: instance not found");
}

sim::Task<void>
Orchestrator::stopAllInstances(const std::string &name)
{
    FunctionState &st = state(name);
    while (true) {
        // Newest first, leaving instances another path is already
        // tearing down to that path.
        size_t i = st.instances.size();
        while (i > 0 && st.instances[i - 1]->stopping)
            --i;
        if (i == 0)
            break;
        co_await stopInstance(st, i - 1);
    }
}

sim::Task<std::int64_t>
Orchestrator::stopIdleInstances(const std::string &name)
{
    FunctionState &st = state(name);
    // Snapshot the instances idle right now, back to front (the order
    // stopAllInstances retires). An instance that turns idle during a
    // shutdown handshake below was busy when the scale-down decision
    // was made — it was just in use and must survive this round.
    std::vector<std::uint64_t> victims;
    for (size_t i = st.instances.size(); i-- > 0;) {
        if (!st.instances[i]->busy && !st.instances[i]->stopping)
            victims.push_back(st.instances[i]->id);
    }
    std::int64_t stopped = 0;
    for (std::uint64_t victim : victims) {
        // Re-locate per victim by its never-reused id: each
        // stopInstance suspends and the vector may shift (or another
        // path — capacity eviction, a warm dispatch — may have
        // claimed or retired the instance) meanwhile.
        size_t idx = st.instances.size();
        for (size_t i = 0; i < st.instances.size(); ++i) {
            if (st.instances[i]->id == victim) {
                idx = i;
                break;
            }
        }
        if (idx == st.instances.size() || st.instances[idx]->busy ||
            st.instances[idx]->stopping)
            continue;
        co_await stopInstance(st, idx);
        ++stopped;
    }
    co_return stopped;
}

std::int64_t
Orchestrator::instanceCount(const std::string &name) const
{
    return static_cast<std::int64_t>(state(name).instances.size());
}

std::int64_t
Orchestrator::idleInstanceCount(const std::string &name) const
{
    const FunctionState &st = state(name);
    std::int64_t idle = 0;
    for (const auto &inst : st.instances)
        if (!inst->busy)
            ++idle;
    return idle;
}

std::vector<Bytes>
Orchestrator::instanceFootprints(const std::string &name) const
{
    const FunctionState &st = state(name);
    std::vector<Bytes> out;
    out.reserve(st.instances.size());
    for (const auto &inst : st.instances)
        out.push_back(inst->vm->footprint());
    return out;
}

bool
Orchestrator::hasRecord(const std::string &name) const
{
    return state(name).recorded;
}

bool
Orchestrator::artifactsLocal(const std::string &name) const
{
    return state(name).artifactsLocal;
}

const WorkingSetRecord &
Orchestrator::record(const std::string &name) const
{
    const FunctionState &st = state(name);
    VHIVE_ASSERT(st.recorded);
    return st.record;
}

const vmm::SnapshotManifests &
Orchestrator::buildManifests(const std::string &name)
{
    return ensureManifests(state(name), reap, vmmParams);
}

std::shared_ptr<const vmm::SnapshotManifests>
Orchestrator::manifests(const std::string &name) const
{
    return state(name).manifests;
}

double
Orchestrator::chunkResidency(const std::string &name) const
{
    const FunctionState &st = state(name);
    // Local artifacts serve the next cold start without any remote
    // fetch (even in chunked modes the local-path loaders win), so a
    // worker holding them is fully "resident" no matter how empty its
    // chunk cache is — prefetching for it would move dead bytes.
    if (st.artifactsLocal)
        return 1.0;
    if (st.manifests)
        return _localChunks.residentFraction(st.manifests->ws);
    return 0.0;
}

void
Orchestrator::invalidateRecord(const std::string &name)
{
    FunctionState &st = state(name);
    st.recorded = false;
    st.remoteStaged = false;
    st.artifactsLocal = false;
    // Admission counters describe the old record's content.
    st.tierAdmitCounts.clear();
    if (st.manifests) {
        // Delta re-record: keep the outgoing manifests — with their
        // staged-chunk references still held — so the re-record's
        // staging can diff against them. Unchanged chunks stay
        // referenced through the swap and are never re-uploaded; the
        // old references release once the delta lands. A second
        // invalidation before that point makes the intermediate
        // version unreachable, so its references go now.
        if (st.prevManifests) {
            _stagedChunks.releaseManifest(st.prevManifests->vmmState);
            _stagedChunks.releaseManifest(st.prevManifests->ws);
        }
        st.prevManifests = std::move(st.manifests);
        st.manifests.reset();
    }
}

void
Orchestrator::retireRecord(const std::string &name)
{
    FunctionState &st = state(name);
    VHIVE_ASSERT(st.activeColds == 0);
    for (auto &m : {st.manifests, st.prevManifests}) {
        if (!m)
            continue;
        _stagedChunks.releaseManifest(m->vmmState);
        _stagedChunks.releaseManifest(m->ws);
    }
    st.manifests.reset();
    st.prevManifests.reset();
    st.recorded = false;
    st.remoteStaged = false;
    st.recordVersion = 0;
    st.prefetchPinnedUntil = -1;
    st.tierAdmitCounts.clear();
    st.evictLocalArtifacts(fs);
    if (st.wsFile != storage::kInvalidFile)
        _tierBudget.invalidated(st.wsFile);
    if (st.traceFile != storage::kInvalidFile)
        _tierBudget.invalidated(st.traceFile);
}

void
Orchestrator::enforceSsdBudget(Time now)
{
    auto localBytes = [this](const FunctionState &st) {
        return vmmParams.vmmStateSize +
               std::max<Bytes>(st.record.wsFileBytes(), kPageSize);
    };
    Bytes resident = 0;
    for (const auto &entry : functions)
        if (entry.second.recorded && entry.second.artifactsLocal)
            resident += localBytes(entry.second);
    _peakSsdBytes = std::max(_peakSsdBytes, resident);
    if (reap.ssdBudget <= 0 || resident <= reap.ssdBudget)
        return;

    const storage::EvictionPolicy &pol =
        storage::evictionPolicyFor(reap.evictionPolicy);
    std::vector<storage::EvictionCandidate> cands;
    std::vector<FunctionState *> owners;
    for (auto &entry : functions) {
        FunctionState &st = entry.second;
        // Never evict mid-cold-start (the tiered chain reads
        // artifactsLocal across suspension points), and never drop
        // the only copy (no remote stage to refetch from).
        if (!st.recorded || !st.artifactsLocal ||
            st.activeColds > 0 || !st.remoteStaged)
            continue;
        storage::EvictionCandidate c;
        c.key = net::placementScope(entry.first);
        c.bytes = localBytes(st);
        c.lruSeq = st.artifactLruSeq;
        c.shares = static_cast<std::int64_t>(st.instances.size());
        c.pinnedUntil = st.prefetchPinnedUntil;
        cands.push_back(c);
        owners.push_back(&st);
    }
    while (resident > reap.ssdBudget && !cands.empty()) {
        std::ptrdiff_t v = pol.pickVictim(cands, now);
        VHIVE_ASSERT(v >= 0);
        auto vi = static_cast<std::size_t>(v);
        FunctionState &st = *owners[vi];
        resident -= cands[vi].bytes;
        _ssdEvictedBytes += cands[vi].bytes;
        ++_ssdEvictions;
        st.evictLocalArtifacts(fs);
        if (st.wsFile != storage::kInvalidFile)
            _tierBudget.invalidated(st.wsFile);
        if (st.traceFile != storage::kInvalidFile)
            _tierBudget.invalidated(st.traceFile);
        cands[vi] = cands.back();
        cands.pop_back();
        owners[vi] = owners.back();
        owners.pop_back();
    }
}

void
Orchestrator::evictLocalArtifacts(const std::string &name)
{
    state(name).evictLocalArtifacts(fs);
}

const FunctionStats &
Orchestrator::stats(const std::string &name) const
{
    return state(name).stats;
}

void
Orchestrator::flushHostCaches()
{
    fs.dropCaches();
}

Bytes
Orchestrator::totalResidentBytes() const
{
    Bytes total = 0;
    for (const auto &entry : functions)
        for (const auto &inst : entry.second.instances)
            total += inst->vm->footprint();
    return total;
}

sim::Task<LatencyBreakdown>
Orchestrator::preWarm(const std::string &name, ColdStartMode mode)
{
    FunctionState &st = state(name);
    for (const auto &inst : st.instances) {
        if (inst->warming || inst->servable()) {
            // Already warm (or getting there): nothing to do.
            co_return LatencyBreakdown{};
        }
    }
    loader::SnapshotLoader &ld = _loaders.loaderFor(mode);
    if ((ld.needsRecord() && !st.recorded) ||
        (ld.needsSnapshot() && !st.hasSnapshot)) {
        // Nothing recorded/captured to warm from yet: the function's
        // first real invocation must run the record phase itself.
        co_return LatencyBreakdown{};
    }
    InvokeOptions opts;
    opts.keepWarm = true;
    opts.forceCold = true;
    opts.warmupOnly = true;
    co_return co_await invoke(name, mode, opts);
}

sim::Task<Bytes>
Orchestrator::backgroundPrefetch(const std::string &name,
                                 Time pin_until)
{
    FunctionState &st = state(name);
    if (!st.recorded || _bgPrefetching.count(name) > 0)
        co_return 0;
    _bgPrefetching.insert(name);
    if (pin_until >= 0) {
        // Shield the prefetched bytes (chunks, page-cache segments,
        // and the SSD artifact copy) from budget eviction until the
        // predicted invocation window passes.
        st.prefetchPinnedUntil =
            std::max(st.prefetchPinnedUntil, pin_until);
        if (st.wsFile != storage::kInvalidFile)
            _tierBudget.pinFileUntil(st.wsFile, pin_until);
    }
    Bytes moved = 0;
    if (st.manifests) {
        // Content-addressed path: paced background fetch of every WS
        // chunk neither resident nor in flight, admitted into the
        // worker chunk cache where the next cold start finds them.
        mem::ChunkPageSource src(sim, artifactStore, st.manifests->ws,
                                 &_localChunks, loader::chunkParams(reap),
                                 &_chunkFlights,
                                 loader::artifactKey(name).scope);
        src.retain(st.manifests);
        moved = co_await src.prefetchMissing(reap.bgWarmPace,
                                             pin_until);
    } else if (st.remoteStaged && !st.artifactsLocal) {
        // Blob path: background-GET the staged WS object and land it
        // in the local WS file (page cache + async writeback), the
        // same admission a tiered cold start would have paid on the
        // critical path.
        mem::RemoteObjectSource remote(artifactStore,
                                       loader::artifactKey(name));
        mem::PageFetchPipeline pipeline(sim, remote);
        Bytes len = st.record.wsFileBytes();
        co_await pipeline.fetchBackground(0, len, reap.bgWarmPace);
        co_await fs.writeBuffered(st.wsFile, 0, len);
        st.artifactsLocal = true;
        moved = len;
    }
    if (pin_until >= 0 && st.wsFile != storage::kInvalidFile) {
        // Re-apply for the segments the prefetch itself just created
        // (pinFileUntil covers only segments tracked at call time).
        _tierBudget.pinFileUntil(st.wsFile, pin_until);
    }
    if (moved > 0)
        ++_bgPrefetches;
    _bgPrefetching.erase(name);
    co_return moved;
}

std::int64_t
Orchestrator::warmingCount(const std::string &name) const
{
    const FunctionState &st = state(name);
    std::int64_t warming = 0;
    for (const auto &inst : st.instances)
        if (inst->warming)
            ++warming;
    return warming;
}

Bytes
Orchestrator::idleResidentBytes() const
{
    Bytes total = 0;
    for (const auto &entry : functions)
        for (const auto &inst : entry.second.instances)
            if (!inst->busy)
                total += inst->vm->footprint();
    return total;
}

std::int64_t
Orchestrator::idleInstanceTotal() const
{
    std::int64_t idle = 0;
    for (const auto &entry : functions)
        for (const auto &inst : entry.second.instances)
            if (!inst->busy)
                ++idle;
    return idle;
}

} // namespace vhive::core

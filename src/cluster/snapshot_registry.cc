#include "cluster/snapshot_registry.hh"

#include <algorithm>

#include "cluster/routing_policy.hh"
#include "core/loader/builtin_loaders.hh"
#include "util/logging.hh"

namespace vhive::cluster {

sim::Task<StagedBuild>
buildForStaging(core::Worker &home, const std::string &name,
                core::ColdStartMode mode)
{
    auto &orch = home.orchestrator();
    StagedBuild b;
    std::int64_t builds0 = orch.snapshotBuilds();
    co_await orch.prepareSnapshot(name);
    b.builds = orch.snapshotBuilds() - builds0;
    if (!orch.hasRecord(name)) {
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke(name, mode, opts);
    }
    b.record = orch.sharedRecord(name);
    if (core::loader::sharedStagingPreset(mode).backstop ==
        core::loader::TieredPreset::Backstop::Chunked) {
        (void)orch.buildManifests(name);
        b.manifests = orch.manifests(name);
    } else {
        b.blobBytes = core::stagedArtifactBytes(
            home.config().vmm.vmmStateSize, *b.record);
    }
    co_return b;
}

bool
pulledStagedArtifact(core::ColdStartMode mode,
                     const core::LatencyBreakdown &bd,
                     bool artifacts_were_local)
{
    bool fetched = core::loader::sharedStagingPreset(mode).tiers ==
                       core::loader::TieredPreset::Tiers::None ||
                   !artifacts_were_local;
    for (const auto &t : bd.tierHits)
        if (t.label == "remote")
            fetched = t.bytes > 0;
    return fetched;
}

sim::Task<bool>
recordOffWindow(std::span<core::Orchestrator *const> orchs,
                const std::vector<std::string> &names,
                core::ColdStartMode mode)
{
    if (orchs.empty() ||
        !orchs.front()->loaders().loaderFor(mode).needsRecord())
        co_return false;
    for (const auto &n : names) {
        for (core::Orchestrator *orch : orchs) {
            orch->flushHostCaches();
            core::InvokeOptions opts;
            opts.forceCold = true;
            (void)co_await orch->invoke(n, mode, opts);
        }
    }
    co_return true;
}

SnapshotRegistry::SnapshotRegistry(sim::Simulation &sim,
                                   net::ArtifactStore &store,
                                   const FleetConfig &cfg, int workers)
    : sim(sim), store(store), mode(cfg.coldStartMode), workers(workers)
{
    VHIVE_ASSERT(workers > 0);
    if (cfg.registryChunkBudget > 0)
        sharedChunks.setBudget(cfg.registryChunkBudget,
                               storage::EvictionPolicyKind::Lru,
                               /*refcount_protected=*/true);
}

int
SnapshotRegistry::homeWorkerFor(const std::string &name) const
{
    // Same ring placement as LocalityHashPolicy, so a locality-routed
    // function's home worker is also the one that built (and kept a
    // local copy of) its artifacts.
    return LocalityHashPolicy::homeWorker(name, workers);
}

sim::Task<void>
SnapshotRegistry::ensureStaged(const std::string &name, const Fleet &fleet)
{
    Entry &e = entries[name];
    if (e.art.staged)
        co_return;
    if (e.staging) {
        co_await e.done->wait();
        co_return;
    }
    e.staging = true;
    if (!e.done)
        e.done = std::make_unique<sim::Gate>(sim);
    co_await buildStageAdopt(name, e, fleet);
}

sim::Task<void>
SnapshotRegistry::restage(const std::string &name, const Fleet &fleet)
{
    auto it = entries.find(name);
    VHIVE_ASSERT(it != entries.end());
    Entry &e = it->second;
    if (e.staging) {
        // Fold into the in-flight (re)staging pass.
        co_await e.done->wait();
        co_return;
    }
    VHIVE_ASSERT(e.art.staged);
    e.staging = true;
    e.art.staged = false;
    e.done = std::make_unique<sim::Gate>(sim); // old gate is open

    // Invalidate fleet-wide: no worker may keep serving the stale
    // version's objects, and the home worker's build becomes the
    // re-record phase.
    for (auto &w : fleet)
        w->orchestrator().invalidateRecord(name);
    co_await buildStageAdopt(name, e, fleet);
}

sim::Task<void>
SnapshotRegistry::buildStageAdopt(const std::string &name, Entry &e,
                                  const Fleet &fleet)
{
    core::Worker &home = *fleet[static_cast<size_t>(homeWorkerFor(name))];
    StagedBuild build = co_await buildForStaging(home, name, mode);
    co_await stage(name, build);

    // Fan the metadata out; the artifact bytes move lazily, at each
    // worker's first cold start, through the remote tier.
    for (auto &w : fleet)
        w->orchestrator().adoptStagedArtifacts(name, build.record,
                                               build.manifests);
    e.staging = false;
    e.done->openGate();
}

sim::Task<void>
SnapshotRegistry::stage(const std::string &name, const StagedBuild &build)
{
    Entry &e = entries[name];
    const std::string fault_key = "staging/" + name;
    const std::uint64_t name_key = net::placementScope(name);
    if (faults != nullptr) {
        // Staging service unavailable: work entering an outage window
        // stalls until it closes (windows are finite, so the loop
        // always exits).
        const std::uint64_t request = sim::faultRequestKey(
            {name_key, static_cast<std::uint64_t>(sim.now())});
        for (int attempt = 0;
             const sim::FaultWindow *w =
                 faults->roll(sim::FaultKind::StagingOutage, fault_key,
                              sim.now(), request, attempt);
             ++attempt) {
            ++_stagingStalls;
            co_await sim.delay(w->end - sim.now());
        }
    }

    // An earlier version already landed: this pass is a delta restage.
    const bool restaging = e.art.homeWorker >= 0;
    if (!restaging) {
        e.art.homeWorker = homeWorkerFor(name);
        e.art.fetchedBy.assign(static_cast<size_t>(workers), false);
    }
    e.art.builds += build.builds;
    const std::int64_t ups0 = e.art.chunksUploaded;
    const std::int64_t tot0 = e.art.chunksTotal;

    // A WorkerCrash rolled mid-pass aborts the staging attempt: the
    // lost work is paid in simulated time and the pass retries. Each
    // chunk draws by (function, pass start, position in the pass).
    std::uint64_t pass_key = 0;
    auto crash = [&](std::int64_t position) -> Duration {
        if (faults == nullptr)
            return 0;
        const sim::FaultWindow *w =
            faults->roll(sim::FaultKind::WorkerCrash, fault_key,
                         sim.now(), pass_key, static_cast<int>(position));
        if (w == nullptr)
            return 0;
        ++_stagingCrashes;
        return std::max<Duration>(usec(1), msec(w->magnitude));
    };
    // Crash windows are finite and every crash advances time, so the
    // loop terminates and the function still stages exactly once.
    while (true) {
        pass_key = sim::faultRequestKey(
            {name_key, static_cast<std::uint64_t>(sim.now())});
        if (build.manifests) {
            // Chunked staging: upload only chunks no earlier function
            // staged. Duplicate chunks — the shared runtime pages
            // every function's snapshot carries — are referenced in
            // the index and never cross the wire again, fleet-wide. An
            // aborted attempt releases the references it took (rolling
            // the index back) and discards its counters.
            const vmm::SnapshotManifests &m = *build.manifests;
            core::ChunkStageTally tally = co_await core::stageChunks(
                sim, m, sharedChunks, store, net::placementScope(name),
                crash);
            if (tally.aborted)
                continue;
            e.art.chunksTotal += tally.total;
            e.art.chunksUploaded += tally.uploaded;
            e.art.dedupSavedBytes += tally.savedBytes;
            e.art.stagedBytes = tally.uploadedBytes;
            e.art.logicalBytes = m.rawBytes();
        } else {
            if (Duration lost = crash(0); lost > 0) {
                co_await sim.delay(lost);
                continue;
            }
            // Stage once: one put() of VMM state + WS file serves
            // every worker (vs one staged copy per worker before).
            co_await store.put(build.blobBytes,
                               core::loader::artifactKey(name));
            e.art.stagedBytes = build.blobBytes;
        }
        break;
    }

    if (restaging) {
        ++e.art.restages;
        const std::int64_t ups = e.art.chunksUploaded - ups0;
        e.art.deltaChunksUploaded += ups;
        e.art.deltaChunksUnchanged += (e.art.chunksTotal - tot0) - ups;
        e.art.deltaBytesUploaded += e.art.stagedBytes; // per-pass bytes
        if (e.stagedManifests) {
            // The delta landed: release the previous version. Chunks
            // the new manifests carried over stay referenced; chunks
            // only the old version used drop their last reference.
            sharedChunks.releaseManifest(e.stagedManifests->vmmState);
            sharedChunks.releaseManifest(e.stagedManifests->ws);
        }
    }
    e.stagedManifests = build.manifests;
    e.art.staged = true;
}

void
SnapshotRegistry::retire(const std::string &name)
{
    auto it = entries.find(name);
    if (it == entries.end())
        return;
    Entry &e = it->second;
    VHIVE_ASSERT(!e.staging);
    if (e.stagedManifests) {
        const Bytes bytes0 = sharedChunks.storedBytes();
        sharedChunks.releaseManifest(e.stagedManifests->vmmState);
        sharedChunks.releaseManifest(e.stagedManifests->ws);
        _gcReleasedBytes += bytes0 - sharedChunks.storedBytes();
    }
    ++_retires;
    entries.erase(it);
}

bool
SnapshotRegistry::isStaged(const std::string &name) const
{
    auto it = entries.find(name);
    return it != entries.end() && it->second.art.staged;
}

const StagedArtifact &
SnapshotRegistry::artifact(const std::string &name) const
{
    auto it = entries.find(name);
    if (it == entries.end())
        fatal("function %s was never staged", name.c_str());
    return it->second.art;
}

void
SnapshotRegistry::noteRemoteFetch(const std::string &name, int worker)
{
    auto it = entries.find(name);
    if (it == entries.end() || !it->second.art.staged)
        return;
    StagedArtifact &art = it->second.art;
    ++art.remoteFetches;
    if (worker >= 0 &&
        worker < static_cast<int>(art.fetchedBy.size()))
        art.fetchedBy[static_cast<size_t>(worker)] = true;
}

} // namespace vhive::cluster

#include "cluster/snapshot_registry.hh"

#include <algorithm>

#include "cluster/routing_policy.hh"
#include "core/loader/builtin_loaders.hh"
#include "util/logging.hh"

namespace vhive::cluster {

SnapshotRegistry::SnapshotRegistry(
    sim::Simulation &sim, net::ArtifactStore &store,
    const std::vector<std::unique_ptr<core::Worker>> &workers,
    core::ColdStartMode mode)
    : sim(sim), store(store), workers(workers), mode(mode)
{
    VHIVE_ASSERT(!workers.empty());
}

int
SnapshotRegistry::homeWorkerFor(const std::string &name) const
{
    // Same ring placement as LocalityHashPolicy, so a locality-routed
    // function's home worker is also the one that built (and kept a
    // local copy of) its artifacts.
    return LocalityHashPolicy::homeWorker(
        name, static_cast<int>(workers.size()));
}

sim::Task<void>
SnapshotRegistry::ensureStaged(const std::string &name)
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

    const std::string fault_key = "staging/" + name;
    if (faults != nullptr) {
        // Staging service unavailable: work entering an outage window
        // stalls until it closes (windows are finite, so the loop
        // always exits).
        while (const sim::FaultWindow *w = faults->roll(
                   sim::FaultKind::StagingOutage, fault_key,
                   sim.now())) {
            ++faults->stats().stagingStalls;
            co_await sim.delay(w->end - sim.now());
        }
    }

    int home = homeWorkerFor(name);
    e.art.homeWorker = home;
    e.art.fetchedBy.assign(workers.size(), false);
    core::Worker &hw = *workers[static_cast<size_t>(home)];
    auto &orch = hw.orchestrator();

    // Build once: boot + snapshot capture on the home worker.
    std::int64_t builds0 = orch.snapshotBuilds();
    co_await orch.prepareSnapshot(name);
    e.art.builds += orch.snapshotBuilds() - builds0;

    // Record once: the REAP-family record phase produces the WS and
    // trace files the fleet will prefetch from.
    if (!orch.hasRecord(name)) {
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke(name, mode, opts);
    }

    std::shared_ptr<const vmm::SnapshotManifests> manifests;
    co_await stageArtifacts(name, e, manifests);

    // Fan the metadata out; the artifact bytes move lazily, at each
    // worker's first cold start, through the remote tier.
    const core::WorkingSetRecord &rec = orch.record(name);
    for (auto &w : workers)
        w->orchestrator().adoptStagedArtifacts(name, rec, manifests);

    e.stagedManifests = manifests;
    e.art.staged = true;
    e.staging = false;
    e.done->openGate();
}

sim::Task<void>
SnapshotRegistry::stageArtifacts(
    const std::string &name, Entry &e,
    std::shared_ptr<const vmm::SnapshotManifests> &manifests)
{
    const std::string fault_key = "staging/" + name;
    core::Worker &hw =
        *workers[static_cast<size_t>(e.art.homeWorker)];
    auto &orch = hw.orchestrator();
    // A WorkerCrash rolled mid-pass aborts the staging attempt: the
    // lost work is paid in simulated time and the pass retries.
    auto crash = [this, &fault_key]() -> Duration {
        if (faults == nullptr)
            return 0;
        const sim::FaultWindow *w = faults->roll(
            sim::FaultKind::WorkerCrash, fault_key, sim.now());
        if (w == nullptr)
            return 0;
        ++faults->stats().workerCrashes;
        return std::max<Duration>(usec(1), msec(w->magnitude));
    };
    // Crash windows are finite and every crash advances time, so the
    // loop terminates and the function still stages exactly once.
    while (true) {
        if (chunked()) {
            // Chunked staging: upload only chunks no earlier function
            // staged. Duplicate chunks — the shared runtime pages
            // every function's snapshot carries — are referenced in
            // the index and never cross the wire again, fleet-wide. An
            // aborted attempt releases the references it took (rolling
            // the index back) and discards its counters.
            const vmm::SnapshotManifests &m = orch.buildManifests(name);
            manifests = orch.manifests(name);
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
            if (Duration lost = crash(); lost > 0) {
                co_await sim.delay(lost);
                continue;
            }
            // Stage once: one put() of VMM state + WS file serves
            // every worker (vs one staged copy per worker before).
            Bytes bytes = core::stagedArtifactBytes(
                hw.config().vmm.vmmStateSize, orch.record(name));
            co_await store.put(bytes, core::loader::artifactKey(name));
            e.art.stagedBytes = bytes;
        }
        co_return;
    }
}

sim::Task<void>
SnapshotRegistry::restage(const std::string &name)
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

    // Claim the outgoing version's references before any suspension:
    // they stay held through the new staging pass so unchanged chunks
    // dedup-hit instead of re-uploading.
    auto prev = std::move(e.stagedManifests);

    if (faults != nullptr) {
        const std::string fault_key = "staging/" + name;
        while (const sim::FaultWindow *w = faults->roll(
                   sim::FaultKind::StagingOutage, fault_key,
                   sim.now())) {
            ++faults->stats().stagingStalls;
            co_await sim.delay(w->end - sim.now());
        }
    }

    // Invalidate fleet-wide: no worker may keep serving the stale
    // version's objects, and the home worker's next invocation becomes
    // the re-record phase.
    for (auto &w : workers)
        w->orchestrator().invalidateRecord(name);

    core::Worker &hw =
        *workers[static_cast<size_t>(e.art.homeWorker)];
    auto &orch = hw.orchestrator();

    // Re-record on the home worker (same path as the first staging).
    core::InvokeOptions opts;
    opts.forceCold = true;
    (void)co_await orch.invoke(name, mode, opts);

    const std::int64_t ups0 = e.art.chunksUploaded;
    const std::int64_t tot0 = e.art.chunksTotal;
    std::shared_ptr<const vmm::SnapshotManifests> manifests;
    co_await stageArtifacts(name, e, manifests);

    ++e.art.restages;
    const std::int64_t ups = e.art.chunksUploaded - ups0;
    e.art.deltaChunksUploaded += ups;
    e.art.deltaChunksUnchanged += (e.art.chunksTotal - tot0) - ups;
    e.art.deltaBytesUploaded += e.art.stagedBytes; // per-pass bytes

    if (prev) {
        // The delta landed: release the previous version. Chunks the
        // new manifests carried over stay referenced; chunks only the
        // old version used drop their last reference here.
        sharedChunks.releaseManifest(prev->vmmState);
        sharedChunks.releaseManifest(prev->ws);
    }

    const core::WorkingSetRecord &rec = orch.record(name);
    for (auto &w : workers)
        w->orchestrator().adoptStagedArtifacts(name, rec, manifests);

    e.stagedManifests = manifests;
    e.art.staged = true;
    e.staging = false;
    e.done->openGate();
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
        const std::int64_t chunks0 = sharedChunks.chunkCount();
        sharedChunks.releaseManifest(e.stagedManifests->vmmState);
        sharedChunks.releaseManifest(e.stagedManifests->ws);
        _gcReleasedBytes += bytes0 - sharedChunks.storedBytes();
        _gcReleasedChunks += chunks0 - sharedChunks.chunkCount();
    }
    ++_retires;
    entries.erase(it);
}

void
SnapshotRegistry::setChunkBudget(Bytes budget,
                                 storage::EvictionPolicyKind policy)
{
    sharedChunks.setBudget(budget, policy,
                           /*refcount_protected=*/true);
}

std::int64_t
SnapshotRegistry::totalRestages() const
{
    std::int64_t n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.restages;
    return n;
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

std::int64_t
SnapshotRegistry::totalBuilds() const
{
    std::int64_t n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.builds;
    return n;
}

Bytes
SnapshotRegistry::totalStagedBytes() const
{
    Bytes n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.stagedBytes;
    return n;
}

std::int64_t
SnapshotRegistry::totalRemoteFetches() const
{
    std::int64_t n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.remoteFetches;
    return n;
}

Bytes
SnapshotRegistry::totalLogicalBytes() const
{
    Bytes n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.logicalBytes;
    return n;
}

Bytes
SnapshotRegistry::totalDedupSavedBytes() const
{
    Bytes n = 0;
    for (const auto &entry : entries)
        n += entry.second.art.dedupSavedBytes;
    return n;
}

bool
SnapshotRegistry::chunked() const
{
    return core::loader::sharedStagingPreset(mode).backstop ==
           core::loader::TieredPreset::Backstop::Chunked;
}

} // namespace vhive::cluster

/**
 * @file
 * Fleet-shared snapshot staging (the Sec. 7.1 consequence the per-
 * worker cluster left on the table): snapshot artifacts can live in
 * remote disaggregated storage, so a fleet needs to build and stage
 * each function's snapshot + working-set artifacts exactly once — one
 * build on a deterministic home worker, one put() into the shared
 * object store — and every other worker cold-starts by pulling the
 * staged artifact through its remote tier instead of rebuilding. The
 * registry turns Cluster::prepareAllSnapshots() from an
 * O(functions x workers) serial build loop into build-once + fan-out
 * metadata adoption, and tracks per-function staged bytes and fetch
 * fan-in (how many workers ever pulled the artifact remotely).
 *
 * Staging splits in two halves, each written once and used by both
 * fleet engines: buildForStaging() on the home worker, and
 * SnapshotRegistry::stage() where the shared store lives — called
 * inline by the sequential Cluster, and in its store domain by
 * ParallelFleet, which ships the build there as a message.
 */

#ifndef VHIVE_CLUSTER_SNAPSHOT_REGISTRY_HH
#define VHIVE_CLUSTER_SNAPSHOT_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/fleet_stats.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "net/object_store.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "util/units.hh"
#include "vmm/snapshot.hh"

namespace vhive::cluster {

/** What the registry knows about one staged function. */
struct StagedArtifact
{
    /** Worker that built and recorded the artifacts. */
    int homeWorker = -1;

    /** Snapshot builds performed for this function (must stay 1). */
    std::int64_t builds = 0;

    /** Bytes put() into the shared store (VMM state + WS file). Under
     * chunked staging (DedupReap) only *newly stored* compressed chunk
     * bytes count — what actually crossed the wire. */
    Bytes stagedBytes = 0;

    /** @name Chunked staging only (zero for blob staging). */
    /// @{

    /** Raw artifact bytes the manifests describe. */
    Bytes logicalBytes = 0;

    /** Compressed bytes NOT uploaded because the chunk was already
     * staged (by this or any other function). */
    Bytes dedupSavedBytes = 0;

    /** Manifest chunks across both artifacts. */
    std::int64_t chunksTotal = 0;

    /** Chunks this staging actually uploaded. */
    std::int64_t chunksUploaded = 0;
    /// @}

    /** @name Delta re-staging (restage(); zero until one happens). */
    /// @{

    /** Completed restage() passes for this function. */
    std::int64_t restages = 0;

    /** Chunks restaging uploaded — the churned delta. */
    std::int64_t deltaChunksUploaded = 0;

    /** Compressed bytes those delta uploads moved. */
    Bytes deltaBytesUploaded = 0;

    /** Chunks restaging dedup-hit against the previous version. */
    std::int64_t deltaChunksUnchanged = 0;
    /// @}

    /** Cold starts that pulled the artifact through the remote tier. */
    std::int64_t remoteFetches = 0;

    /** Which workers ever pulled remotely (fan-in bitmap). */
    std::vector<bool> fetchedBy;

    bool staged = false;

    /** Distinct workers that pulled the staged artifact remotely. */
    std::int64_t
    fetchFanIn() const
    {
        std::int64_t n = 0;
        for (bool b : fetchedBy)
            n += b ? 1 : 0;
        return n;
    }
};

/**
 * What a home worker's build hands the store-side staging pass: the
 * recorded working set plus either the chunk manifests (chunked
 * staging, DedupReap) or the blob size to put() (blob staging).
 * Immutable once built, so the parallel fleet ships one shared copy
 * to the store domain and on to every adopting worker.
 */
struct StagedBuild
{
    /** The home worker's published record, shared by every adopter. */
    std::shared_ptr<const core::WorkingSetRecord> record;

    /** Chunk manifests (chunked staging); null for blob staging. */
    std::shared_ptr<const vmm::SnapshotManifests> manifests;

    /** VMM state + WS file bytes to put() (blob staging only). */
    Bytes blobBytes = 0;

    /** Snapshot builds this build performed (0 when already built). */
    std::int64_t builds = 0;
};

/**
 * The home-worker half of staging, shared by both fleet engines: boot
 * and snapshot @p name on @p home (build once), run the record phase
 * there under @p mode if no record exists (record once — the REAP
 * record phase produces the WS and trace files the fleet prefetches
 * from), then describe the artifacts for the store-side pass.
 */
sim::Task<StagedBuild> buildForStaging(core::Worker &home,
                                       const std::string &name,
                                       core::ColdStartMode mode);

/**
 * Whether a shared-staging cold start pulled the staged artifact
 * through the remote tier — the one rule both engines count
 * remoteArtifactFetches by. A mode without local tiers GETs the
 * artifact on every cold start; otherwise @p artifacts_were_local
 * (the worker held a local copy before the invoke) decides, unless a
 * tiered chain reports which tier actually served the WS bytes — that
 * report wins, since a concurrent cold start may have re-localized
 * the artifact while this one queued.
 */
bool pulledStagedArtifact(core::ColdStartMode mode,
                          const core::LatencyBreakdown &bd,
                          bool artifacts_were_local);

/**
 * Per-worker staging's record pass, used by both fleet engines: for
 * each of @p names, on each of @p orchs, flush the host caches and
 * force one cold invocation. @return false, having done nothing, when
 * @p mode records nothing.
 */
sim::Task<bool> recordOffWindow(std::span<core::Orchestrator *const> orchs,
                                const std::vector<std::string> &names,
                                core::ColdStartMode mode);

/**
 * The fleet's staging records and its one staging implementation:
 * stages each deployed function's artifacts into the shared object
 * store exactly once, even under concurrent ensureStaged() calls (the
 * first caller builds, later callers wait on a per-function gate).
 * Holds only its simulation, the shared store, the staged-chunk index
 * and the per-function records; the workers are the caller's. Owned by
 * Cluster, and by ParallelFleet's store domain, when cross-worker
 * snapshot sharing is enabled.
 */
class SnapshotRegistry
{
  public:
    /** The worker fleet the sequential staging calls work on. */
    using Fleet = std::vector<std::unique_ptr<core::Worker>>;

    /**
     * @param cfg The fleet's configuration: its cold-start mode drives
     * the home worker's record phase (so the recorded artifacts match
     * what the fleet restores with), and its registry budget caps the
     * staged-chunk index. @param workers Fleet size (home placement).
     */
    SnapshotRegistry(sim::Simulation &sim, net::ArtifactStore &store,
                     const FleetConfig &cfg, int workers);

    SnapshotRegistry(const SnapshotRegistry &) = delete;
    SnapshotRegistry &operator=(const SnapshotRegistry &) = delete;

    /**
     * Build + stage @p name's artifacts if not already staged: build
     * on the home worker of @p fleet (buildForStaging), run the
     * store-side pass (stage), then fan the metadata out to every
     * worker (adoptStagedArtifacts). Concurrent callers for the same
     * function wait for the single in-flight staging instead of
     * duplicating it.
     */
    sim::Task<void> ensureStaged(const std::string &name,
                                 const Fleet &fleet);

    /**
     * Re-record + delta re-stage @p name (the function's code was
     * updated): invalidate the record across @p fleet, re-record on
     * the home worker, then stage the new version against the
     * previous one's still-referenced chunks — unchanged chunks
     * dedup-hit and never cross the wire again; only the churned delta
     * uploads. The new metadata fans out to every worker. Must already
     * be staged; a caller racing an in-flight (re)staging waits for it.
     */
    sim::Task<void> restage(const std::string &name, const Fleet &fleet);

    /**
     * The store-side staging pass, run where the shared store lives:
     * stall through StagingOutage windows, upload @p build (chunked:
     * core::stageChunks against the fleet index, duplicates referenced
     * and never re-uploaded; blob: one put()) and record the counters.
     * A WorkerCrash rolled mid-pass aborts the attempt — chunk
     * references it took are released (the index rolls back) and the
     * pass retries, so a function is still staged exactly once. On a
     * restage (an earlier version already landed) it also books the
     * delta and then releases the previous version's references.
     */
    sim::Task<void> stage(const std::string &name,
                          const StagedBuild &build);

    /**
     * Fleet-wide GC of @p name (the function is being retired):
     * release every shared-chunk reference its staged manifests hold
     * and forget the staging record. Chunks no other function
     * references drop out of the index — their bytes are reclaimed
     * (or, under a refcount-protected budget, retained as evictable
     * pool). Workers' own records are the caller's to retire
     * (Cluster::retireFunction does both). No-op when never staged.
     */
    void retire(const std::string &name);

    /** Functions retired (GC'd) so far. */
    std::int64_t retires() const { return _retires; }

    /** Stored bytes retire() reclaimed from the shared index. */
    Bytes gcReleasedBytes() const { return _gcReleasedBytes; }

    /** Staging passes stalled by a StagingOutage window. */
    std::int64_t stagingStalls() const { return _stagingStalls; }

    /** Staging attempts aborted by a WorkerCrash window. */
    std::int64_t stagingCrashes() const { return _stagingCrashes; }

    /** Whether @p name has been staged. */
    bool isStaged(const std::string &name) const;

    /** Staging record for @p name (must be staged or staging). */
    const StagedArtifact &artifact(const std::string &name) const;

    /** Calls @p f on every function's staging record, by name. */
    template <typename F>
    void
    forEachArtifact(F &&f) const
    {
        for (const auto &entry : entries)
            f(entry.second.art);
    }

    /** Deterministic home worker for @p name (hash on the ring). */
    int homeWorkerFor(const std::string &name) const;

    /** Called by the front-end when a cold start on @p worker pulled
     * the artifact through the remote tier. */
    void noteRemoteFetch(const std::string &name, int worker);

    /**
     * The fleet staged-chunk index (chunked staging): every distinct
     * chunk in the shared store, refcounted by referencing manifests.
     * Budgeted by FleetConfig::registryChunkBudget; referenced chunks
     * are shielded (refcount-protected — the index must never lose a
     * chunk a live manifest needs), so budget pressure only reclaims
     * the zero-ref pool retire() and restage() leave behind.
     */
    const storage::ChunkStore &chunkIndex() const
    {
        return sharedChunks;
    }

    /**
     * Install a fault plan on staging passes; specs are matched
     * against "staging/<function>" by stage() (StagingOutage stalls,
     * WorkerCrash aborts and retries). Draws are keyed by (function,
     * pass start, chunk position). Null detaches; the plan is
     * borrowed and must outlive the registry.
     */
    void setFaultPlan(const sim::FaultPlan *plan) { faults = plan; }

  private:
    struct Entry
    {
        StagedArtifact art;
        bool staging = false;
        std::unique_ptr<sim::Gate> done;

        /**
         * The staged version's manifests (chunked staging only): the
         * references the shared index holds on this function's
         * behalf, released by retire() or — after the delta lands —
         * by the restaging pass.
         */
        std::shared_ptr<const vmm::SnapshotManifests> stagedManifests;
    };

    /**
     * The sequential body of ensureStaged() and restage(), once @p e
     * is claimed: build on the home worker, stage, fan the metadata
     * out across @p fleet, then release the waiters.
     */
    sim::Task<void> buildStageAdopt(const std::string &name, Entry &e,
                                    const Fleet &fleet);

    sim::Simulation &sim;
    net::ArtifactStore &store;
    core::ColdStartMode mode;
    int workers;
    std::map<std::string, Entry> entries;
    storage::ChunkStore sharedChunks;

    /** Installed fault plan (borrowed; null = fault-free). */
    const sim::FaultPlan *faults = nullptr;

    /** @name GC and injected-fault accounting. */
    /// @{
    std::int64_t _retires = 0;
    Bytes _gcReleasedBytes = 0;
    std::int64_t _stagingStalls = 0;
    std::int64_t _stagingCrashes = 0;
    /// @}
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_SNAPSHOT_REGISTRY_HH

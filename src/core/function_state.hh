/**
 * @file
 * Shared per-function control-plane state. Historically private to the
 * Orchestrator; now a first-class structure so SnapshotLoaders (the
 * cold-start strategy layer) can operate on it directly.
 */

#ifndef VHIVE_CORE_FUNCTION_STATE_HH
#define VHIVE_CORE_FUNCTION_STATE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/monitor.hh"
#include "core/options.hh"
#include "core/ws_file.hh"
#include "func/profile.hh"
#include "mem/uffd.hh"
#include "net/object_store.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/file_store.hh"
#include "util/units.hh"
#include "vmm/microvm.hh"
#include "vmm/snapshot.hh"

namespace vhive::core {

/** Per-function aggregate statistics. */
struct FunctionStats
{
    std::int64_t coldInvocations = 0;
    std::int64_t warmInvocations = 0;
    std::int64_t recordPhases = 0;
    std::int64_t rerecordsTriggered = 0;
    std::int64_t layoutRerandomizations = 0;

    /** Cold starts torn down by an injected WorkerCrash fault. */
    std::int64_t crashes = 0;

    /** Pre-warm cold paths completed (warmupOnly; not invocations). */
    std::int64_t preWarms = 0;

    /** Invocations served warm by a pre-warmed instance's first use. */
    std::int64_t preWarmHits = 0;

    /**
     * Delta re-record staging (this worker's lazy path): re-stagings
     * performed, chunks/bytes actually re-uploaded, and chunks carried
     * over unchanged from the previous version. The fleet registry
     * keeps its own equivalents for build-once staging.
     */
    std::int64_t deltaRestages = 0;
    std::int64_t deltaChunksUploaded = 0;
    Bytes deltaBytesUploaded = 0;
    std::int64_t deltaChunksUnchanged = 0;
};

/** One live instance: VM + (optional) uffd/monitor pair. */
struct Instance
{
    std::unique_ptr<vmm::MicroVm> vm;
    std::unique_ptr<mem::UserFaultFd> uffd;
    std::unique_ptr<Monitor> monitor;
    bool busy = false;
    std::int64_t residualBaseline = 0;
    std::int64_t lastInput = -1;
    Time lastUsedAt = 0;

    /**
     * Pre-warm lifecycle (control plane). `warming` is set while the
     * warmupOnly cold path is still running; an invoke arriving then
     * waits on `readyGate` and lands on a partially-warmed instance
     * instead of starting a full cold one. `preWarmed` marks a
     * completed pre-warm that has not served yet — cleared (and
     * counted as a hit) on first serve, or counted as wasted if the
     * instance is retired still holding it.
     */
    bool warming = false;
    bool preWarmed = false;
    std::shared_ptr<sim::Gate> readyGate;

    /**
     * Set when a teardown claims the instance, before its monitor
     * shutdown handshake suspends; the instance is freed once the
     * handshake completes, so nothing may start serving on it.
     */
    bool stopping = false;

    /**
     * Orchestrator-unique id, never reused (unlike the instance's
     * address). Anything that re-identifies an instance across a
     * suspension point must match on this, not on the pointer.
     */
    std::uint64_t id = 0;

    /** Idle, running and not being torn down: a warm invoke may claim
     * it. */
    bool
    servable() const
    {
        return !busy && !stopping &&
               vm->state() == vmm::VmState::Running;
    }
};

/**
 * Size of the artifact bundle a remote cold start stages into and
 * fetches from the object store: the serialized VMM/device state plus
 * the compact WS file. The single definition shared by the
 * RemoteReap/TieredReap staging path and the cluster's
 * SnapshotRegistry, so build-once staging and lazy per-worker staging
 * can never price the artifact differently.
 */
inline Bytes
stagedArtifactBytes(Bytes vmm_state_size, const WorkingSetRecord &rec)
{
    return vmm_state_size + rec.wsFileBytes();
}

/** Everything the control plane tracks about one deployed function. */
struct FunctionState
{
    func::FunctionProfile profile;
    vmm::SnapshotFiles snapshot;
    storage::FileId rootfs = storage::kInvalidFile;
    bool hasSnapshot = false;
    storage::FileId wsFile = storage::kInvalidFile;
    storage::FileId traceFile = storage::kInvalidFile;

    /**
     * The recorded working set, immutable once published: a record
     * phase publishes a fresh object and never writes into the one
     * it replaces, so the registry can hand one record to every
     * worker of a fleet and a cold start can pin the version it
     * loads. Null until the first record or adoption; kept (stale)
     * when `recorded` is cleared.
     */
    std::shared_ptr<const WorkingSetRecord> record;
    bool recorded = false;

    /**
     * Whether the snapshot artifacts (WS file + VMM state) have a
     * valid local copy on this worker's SSD. Set by the record phase;
     * cleared when modelling a fresh worker whose only copy lives in
     * the remote store (TieredReap staging) or when experiments evict
     * local artifacts. Gates the page-cache and local-SSD tiers of
     * tiered fallback chains.
     */
    bool artifactsLocal = false;

    /**
     * Whether the current record's snapshot artifacts have been staged
     * into the remote object store (RemoteReap). Cleared whenever the
     * record is invalidated or re-recorded.
     */
    bool remoteStaged = false;

    /**
     * Content-addressed chunk recipes for the current record's
     * artifacts (DedupReap). Built lazily by ensureManifests() once a
     * record exists; shared with adopting workers under fleet staging;
     * reset whenever the record is invalidated or re-recorded (new
     * content means new chunk identities).
     */
    std::shared_ptr<const vmm::SnapshotManifests> manifests;

    /**
     * The previous record version's manifests, kept across a
     * re-record until the new version is staged: delta staging
     * references the new chunks *first* and releases these *after*,
     * so unchanged chunks never hit zero references (and are never
     * re-uploaded). Cleared once the delta lands, and by
     * invalidateRecord.
     */
    std::shared_ptr<const vmm::SnapshotManifests> prevManifests;

    /**
     * Monotonic record version: 1 after the first record phase,
     * incremented by every re-record. Salts the content identity of
     * function-unique chunks (vmm::ChunkingModel::rerecordChurn), so a
     * re-recorded working set shares most — but not all — chunks with
     * its predecessor. Version <= 1 produces bit-identical manifests
     * to builds that never re-record.
     */
    std::int64_t recordVersion = 0;

    /**
     * Cold starts currently loading this function (in flight). The
     * SSD-budget enforcer never evicts a function's local artifacts
     * mid-cold-start — the tiered chain's contains()/admit() hooks
     * read artifactsLocal across suspension points.
     */
    std::int64_t activeColds = 0;

    /**
     * Soft prefetch shield for the SSD budget: a control-plane
     * prefetch warmed this function's artifacts for a predicted
     * window ending here; the PrefetchPinned policy keeps the local
     * copy until then. -1 = never prefetched.
     */
    Time prefetchPinnedUntil = -1;

    /**
     * Recency stamp for the SSD budget's LRU: bumped (from the
     * orchestrator's counter) each time a cold start uses the local
     * artifact copy.
     */
    std::uint64_t artifactLruSeq = 0;

    /**
     * Per-page remote-serve counters backing tiered admit-on-N-hits
     * (ReapOptions::admitAfterHits > 1): how many times each WS page
     * was served from below the warm tiers. Lives here because the
     * tiered chain is rebuilt per cold start while the threshold must
     * span cold starts; cleared whenever the record changes (the
     * counters describe the old content).
     */
    std::map<Bytes, int> tierAdmitCounts;

    std::int64_t nextInput = 0;
    std::vector<std::unique_ptr<Instance>> instances;
    FunctionStats stats;

    /**
     * Create the function's rootfs image file if absent (containerd
     * generates it from the OCI image via device-mapper, Sec. 6.1).
     * @return the rootfs file id.
     */
    storage::FileId ensureRootfs(storage::FileStore &fs);

    /**
     * Drop the local-SSD copy of the snapshot artifacts: clear
     * artifactsLocal and evict their cached pages. Shared by
     * Orchestrator::evictLocalArtifacts and TieredReap's fresh-worker
     * staging so the two invalidation paths cannot diverge.
     */
    void evictLocalArtifacts(storage::FileStore &fs);

    /**
     * Create (or resize) the ws/trace file entries to match `record`.
     * The single sizing rule shared by the record phase and the
     * registry's fan-out adoption, so artifact files can never be
     * sized differently on recorded vs adopting workers.
     * @return {ws file bytes, trace file bytes}.
     */
    std::pair<Bytes, Bytes> ensureArtifactFiles(storage::FileStore &fs);
};

/**
 * Build (once) the chunk manifests describing @p st's current record
 * under the ReapOptions chunking knobs. The single manifest-sizing
 * rule shared by the DedupReap loader's lazy staging and the cluster
 * registry's build-once staging, so the two paths can never chunk the
 * same artifact differently. Requires a recorded working set.
 */
const vmm::SnapshotManifests &
ensureManifests(FunctionState &st, const ReapOptions &reap,
                const vmm::VmmParams &vmm);

/** What one chunk-staging pass did (stageChunks). */
struct ChunkStageTally
{
    std::int64_t total = 0;    ///< manifest chunks: the refs taken
    std::int64_t uploaded = 0; ///< put as new, or an orphan claimed
    Bytes uploadedBytes = 0;   ///< stored bytes those puts moved
    Bytes savedBytes = 0;      ///< stored bytes dedup kept local
    bool aborted = false;      ///< abort hook fired; refs rolled back
};

/**
 * Stage @p m's chunks into @p store — VMM state, then WS, each in
 * manifest order: addRef every chunk in @p index and putChunk only the
 * ones new to it. Duplicates (cross-function and in-artifact repeats)
 * are referenced, never re-uploaded. The single chunk-staging routine
 * of the DedupReap loader and the fleet registry (both fleet engines).
 * @p abort, when set, runs before each chunk with the chunk's position
 * in the pass; a positive return aborts the pass after that much lost
 * simulated time and releases every reference it took — an upload a
 * concurrent pass still references stays stored and is orphaned, so
 * the next pass that references it counts the upload
 * (ChunkStore::orphan).
 */
sim::Task<ChunkStageTally>
stageChunks(sim::Simulation &sim, const vmm::SnapshotManifests &m,
            storage::ChunkStore &index, net::ArtifactStore &store,
            std::uint64_t scope,
            std::function<Duration(std::int64_t)> abort = nullptr);

} // namespace vhive::core

#endif // VHIVE_CORE_FUNCTION_STATE_HH

#include "core/function_state.hh"

#include <algorithm>
#include <vector>

#include "util/logging.hh"

namespace vhive::core {

storage::FileId
FunctionState::ensureRootfs(storage::FileStore &fs)
{
    if (rootfs == storage::kInvalidFile)
        rootfs = fs.createFile(profile.name + "/rootfs",
                               profile.rootfsImage);
    return rootfs;
}

std::pair<Bytes, Bytes>
FunctionState::ensureArtifactFiles(storage::FileStore &fs)
{
    Bytes ws_bytes = std::max<Bytes>(record.wsFileBytes(), kPageSize);
    Bytes trace_bytes =
        std::max<Bytes>(TraceFileCodec::encodedSize(record), 1);
    if (wsFile == storage::kInvalidFile) {
        wsFile = fs.createFile(profile.name + "/ws", ws_bytes);
        traceFile =
            fs.createFile(profile.name + "/trace", trace_bytes);
    } else {
        fs.truncate(wsFile, ws_bytes);
        fs.truncate(traceFile, trace_bytes);
    }
    return {ws_bytes, trace_bytes};
}

const vmm::SnapshotManifests &
ensureManifests(FunctionState &st, const ReapOptions &reap,
                const vmm::VmmParams &vmm)
{
    VHIVE_ASSERT(st.recorded);
    if (!st.manifests) {
        vmm::ChunkingModel model;
        model.chunkBytes = reap.chunkBytes;
        model.compression = reap.chunkCompression;
        model.compressRatio = reap.chunkCompressRatio;
        model.crossFunctionDupRatio = reap.chunkDupRatio;
        model.sharedPoolBytes = reap.chunkSharedPoolBytes;
        model.recordVersion = std::max<std::int64_t>(st.recordVersion, 1);
        model.rerecordChurn = reap.rerecordChurn;
        // Same minimum sizing as ensureArtifactFiles so the chunked
        // and blob transfer paths describe identical artifact bytes.
        Bytes ws_bytes =
            std::max<Bytes>(st.record.wsFileBytes(), kPageSize);
        st.manifests = std::make_shared<const vmm::SnapshotManifests>(
            vmm::buildSnapshotManifests(st.profile.name,
                                        vmm.vmmStateSize, ws_bytes,
                                        model));
    }
    return *st.manifests;
}

void
FunctionState::evictLocalArtifacts(storage::FileStore &fs)
{
    artifactsLocal = false;
    if (wsFile != storage::kInvalidFile)
        fs.dropFileCaches(wsFile);
    if (traceFile != storage::kInvalidFile)
        fs.dropFileCaches(traceFile);
}

sim::Task<ChunkStageTally>
stageChunks(sim::Simulation &sim, const vmm::SnapshotManifests &m,
            storage::ChunkStore &index, net::ArtifactStore &store,
            std::uint64_t scope, std::function<Duration()> abort)
{
    ChunkStageTally tally;
    // Chunks whose upload this pass counted (abortable passes only).
    std::vector<storage::ChunkHash> counted;
    for (const storage::ChunkManifest *man : {&m.vmmState, &m.ws}) {
        for (const storage::ChunkRef &c : man->chunks) {
            if (abort) {
                if (Duration lost = abort(); lost > 0) {
                    co_await sim.delay(lost);
                    tally.aborted = true;
                    break;
                }
            }
            ++tally.total;
            bool stored = index.addRef(c, sim.now());
            if (stored)
                co_await store.putChunk(c.storedBytes, {c.hash, scope});
            // A rolled-back pass's upload is already in the store.
            if (stored || index.claimOrphan(c.hash)) {
                ++tally.uploaded;
                tally.uploadedBytes += c.storedBytes;
                if (abort)
                    counted.push_back(c.hash);
            } else {
                tally.savedBytes += c.storedBytes;
            }
        }
        if (tally.aborted)
            break;
    }
    if (tally.aborted) {
        // Roll back every reference this pass took, in order; chunks
        // it alone stored drop to zero refs and are evicted. An upload
        // a concurrent pass still references survives, uncounted.
        std::int64_t left = tally.total;
        for (const storage::ChunkManifest *man : {&m.vmmState, &m.ws})
            for (const storage::ChunkRef &c : man->chunks)
                if (left-- > 0)
                    index.release(c.hash);
        for (storage::ChunkHash h : counted)
            index.orphan(h);
    }
    co_return tally;
}

} // namespace vhive::core

/**
 * @file
 * ChunkPageSource: a PageSource that maps guest-page byte ranges onto
 * a content-addressed chunk manifest (storage::ChunkManifest). Reads
 * are served at chunk granularity from two places:
 *
 *  - the worker's resident chunk cache (storage::ChunkStore): chunks
 *    another cold start — possibly of a *different function* — already
 *    pulled cost only a local copy, which is where cross-function
 *    dedup ("How Low Can You Go?", arXiv:2109.13319) turns into saved
 *    network bytes;
 *  - the remote object store: missing chunks travel as batched ranged
 *    GETs of their *compressed* sizes (net::ObjectStore::getChunks),
 *    pay a per-chunk decompression cost on arrival, and are admitted
 *    into the resident cache.
 *
 * It is a plain PageSource, so PageFetchPipeline's fetch shapes
 * (contiguous, windowed, adaptive) and TieredPageSource composition
 * work on top unchanged. Per-path accounting surfaces through
 * tierStats() as "chunk-cache" / "chunk-remote" rows.
 */

#ifndef VHIVE_MEM_CHUNK_SOURCE_HH
#define VHIVE_MEM_CHUNK_SOURCE_HH

#include <map>
#include <memory>

#include "mem/page_source.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "util/units.hh"

namespace vhive::mem {

/**
 * Worker-wide single-flight table: chunk hash -> gate opened when the
 * in-flight fetch lands. Shared by every ChunkPageSource on a worker,
 * so concurrent cold starts — of the same or different functions —
 * neither transfer a chunk twice nor treat still-in-flight bytes as
 * resident: a reader that needs an in-flight chunk waits for the
 * owning fetch to complete, and the resident cache only ever holds
 * chunks whose bytes have actually arrived.
 */
using ChunkFlights =
    std::map<storage::ChunkHash, std::shared_ptr<sim::Gate>>;

/** Client-side chunk handling costs, fixed for every ChunkPageSource. */
struct ChunkSourceParams
{
    /** Decompression rate (raw output bytes/sec). */
    double decompressBandwidth = 3e9;

    /** Fixed per-chunk decompression dispatch cost. */
    Duration perChunkDecompress = usec(4);

    /** Copy rate when a chunk is served from the resident cache. */
    double cacheBandwidth = 8e9;

    /** Fixed per-chunk cache lookup + map cost. */
    Duration perChunkCacheCopy = usec(1);

    /** Max chunks coalesced into one batched ranged GET. */
    int batchChunks = 16;
};

/** Aggregate chunk-path counters, readable by loaders and benches. */
struct ChunkFetchStats
{
    /** Chunks served from the resident cache. */
    std::int64_t cacheChunks = 0;

    /** Chunks fetched from the remote store. */
    std::int64_t remoteChunks = 0;

    /** Compressed bytes that crossed the network. */
    Bytes storedBytesFetched = 0;

    /** Raw bytes reassembled from remote chunks. */
    Bytes rawBytesFetched = 0;

    /** Raw bytes served from the resident cache. */
    Bytes rawBytesFromCache = 0;
};

/**
 * PageSource over one artifact manifest. The resident cache and the
 * single-flight table are borrowed (typically the worker-wide
 * instances shared across functions); pass nullptr for a private
 * per-source one.
 */
class ChunkPageSource final : public PageSource
{
  public:
    /**
     * @p scope is the placement scope (function-name hash) stamped on
     * every store request; 0 is fine for unsharded stores.
     */
    ChunkPageSource(sim::Simulation &sim, net::ArtifactStore &store,
                    const storage::ChunkManifest &manifest,
                    storage::ChunkStore *resident_cache,
                    ChunkFlights *flights = nullptr,
                    std::uint64_t scope = 0);

    const char *name() const override { return "chunked"; }
    sim::Task<void> read(Bytes offset, Bytes len) override;
    std::vector<TierStats> tierStats() const override;

    const ChunkFetchStats &chunkStats() const { return _chunkStats; }

    /**
     * Hold @p owner alive for this source's lifetime. The manifest is
     * borrowed by reference; when it lives inside a shared object that
     * can be dropped concurrently (a function's SnapshotManifests,
     * which Orchestrator::invalidateRecord or a re-record releases
     * while a cold start is still reading), the creator pins that
     * owner here so in-flight reads never see a freed manifest.
     */
    void retain(std::shared_ptr<const void> owner)
    {
        pinned = std::move(owner);
    }

    /** Fetch every chunk of the manifest (bulk artifact transfer). */
    sim::Task<void> readAll();

    /**
     * Background prefetch: fetch every manifest chunk not already
     * resident or in flight, one shard group at a time with a @p pace
     * pause between batches (the chunk-level analogue of
     * PageFetchPipeline::fetchBackground). Never waits on other
     * readers' flights — the point is warming, not serving a read.
     * @p pin_until, when >= 0, stamps every fetched chunk with a soft
     * prefetch shield the PrefetchPinned eviction policy honours
     * until that instant. @return raw bytes fetched.
     */
    sim::Task<Bytes> prefetchMissing(Duration pace,
                                     Time pin_until = -1);

  private:
    /**
     * Fetch one shard's group of missing chunk indices as batched
     * GETs: transfer, decompress, admit, open flight gates. @p pace
     * inserts a pause between batches (background prefetch). Admitted
     * chunks are hard-pinned for the duration of the group so a
     * budgeted cache never sheds a chunk mid-fetch; @p pin_until
     * additionally soft-shields them.
     */
    sim::Task<void> fetchGroup(std::vector<size_t> group, Duration pace,
                               Time pin_until = -1);

    sim::Simulation &sim;
    net::ArtifactStore &store;
    const storage::ChunkManifest &manifest;
    std::uint64_t scope;
    storage::ChunkStore *cache;
    storage::ChunkStore ownedCache;
    ChunkFlights *flights;
    ChunkFlights ownedFlights;
    std::shared_ptr<const void> pinned;
    static constexpr ChunkSourceParams params{};
    ChunkFetchStats _chunkStats;
    TierStats cacheRow;
    TierStats remoteRow;
};

} // namespace vhive::mem

#endif // VHIVE_MEM_CHUNK_SOURCE_HH

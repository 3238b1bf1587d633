/**
 * @file
 * Content-addressed chunk layer for snapshot/WS artifacts. The paper
 * shows cold-start latency is dominated by moving guest-memory bytes
 * (Sec. 5-7); "How Low Can You Go?" (arXiv:2109.13319) shows a large
 * fraction of those bytes are identical runtime pages shared across
 * functions. Instead of shipping each artifact as an opaque blob, the
 * artifact path can split it into fixed-size chunks keyed by a content
 * hash:
 *
 *  - ChunkRef/ChunkManifest: the per-artifact recipe — an ordered list
 *    of (hash, raw size, compressed size) chunk references.
 *  - ChunkStore: a refcounted content-addressed index. Each distinct
 *    chunk is stored exactly once no matter how many manifests (or
 *    functions) reference it; releasing the last reference evicts it.
 *    One instance models the store-side staged index (what was actually
 *    uploaded), another the per-worker resident chunk cache.
 *
 * The layer is pure bookkeeping — simulated transfer cost stays in
 * net::ObjectStore (putChunk/getChunks) and mem::ChunkPageSource.
 */

#ifndef VHIVE_STORAGE_CHUNK_STORE_HH
#define VHIVE_STORAGE_CHUNK_STORE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/eviction.hh"
#include "util/units.hh"

namespace vhive::storage {

/** Content hash of one chunk (FNV-1a-derived, 64-bit). */
using ChunkHash = std::uint64_t;

/** One chunk of an artifact: content identity plus both sizes. */
struct ChunkRef
{
    ChunkHash hash = 0;

    /** Uncompressed bytes this chunk reassembles to. */
    Bytes rawBytes = 0;

    /** Bytes actually stored/transferred (compressed size). */
    Bytes storedBytes = 0;
};

/**
 * The recipe for one artifact: ordered chunk references at a fixed
 * nominal chunk size (only the final chunk may be shorter). Chunk i
 * covers raw bytes [i * chunkBytes, i * chunkBytes + chunks[i].rawBytes).
 */
struct ChunkManifest
{
    /** Nominal chunk size every non-final chunk has. */
    Bytes chunkBytes = 0;

    std::vector<ChunkRef> chunks;

    /** Total raw (reassembled) artifact size. */
    Bytes rawBytes() const;

    /** Total stored (compressed) size before dedup. */
    Bytes storedBytes() const;

    std::int64_t
    chunkCount() const
    {
        return static_cast<std::int64_t>(chunks.size());
    }

    /**
     * Chunk indices [first, last] covering raw range
     * [offset, offset+len). The range must lie inside the artifact.
     */
    std::pair<size_t, size_t> chunkSpan(Bytes offset, Bytes len) const;
};

/** Counters for dedup effectiveness, readable by tests and benches. */
struct ChunkStoreStats
{
    /** addRef() calls that inserted a new chunk. */
    std::int64_t inserts = 0;

    /** addRef() calls deduplicated against a stored chunk. */
    std::int64_t dedupHits = 0;

    /** Chunks evicted because their refcount dropped to zero. */
    std::int64_t evictions = 0;

    /** Chunks evicted by byte-budget pressure (setBudget). */
    std::int64_t budgetEvictions = 0;

    /** Stored bytes reclaimed by budget evictions. */
    Bytes budgetEvictedBytes = 0;

    /** High-water mark of resident stored (compressed) bytes. */
    Bytes peakStoredBytes = 0;

    /** High-water mark of resident raw bytes. */
    Bytes peakRawBytes = 0;

    /** Raw bytes across all addRef() calls (logical artifact bytes). */
    Bytes logicalRawBytes = 0;

    /** Stored bytes that addRef() did NOT have to store again. */
    Bytes dedupSavedBytes = 0;
};

/**
 * Refcounted content-addressed chunk index: each distinct hash is held
 * once with a reference count; release() of the last reference evicts
 * the chunk. Two chunks with equal hashes must agree on both sizes
 * (content identity implies size identity) — addRef() asserts this.
 *
 * With a byte budget (setBudget) the store becomes a size-capped
 * cache: admissions that push resident stored bytes past the budget
 * evict victims chosen by a pluggable EvictionPolicy. Hard-pinned
 * entries (pin(), covering mid-fetch/mid-read windows) are never
 * victims; with refcountProtected neither is anything still
 * referenced, and zero-ref chunks are *retained* as the evictable
 * pool instead of dropped eagerly — a re-stage of a retained chunk is
 * a dedup hit, not an upload. A zero budget (the default) keeps the
 * exact historical behaviour, including evict-at-zero-refs.
 */
class ChunkStore
{
  public:
    /** Whether @p hash is currently stored. */
    bool contains(ChunkHash hash) const;

    /**
     * Cap resident stored bytes at @p budget (0 = unlimited, the
     * historical behaviour). @p refcount_protected shields chunks
     * with live references from eviction *and* retains zero-ref
     * chunks for reuse (the fleet staged-index role); without it refs
     * are admission bookkeeping only and any unpinned chunk is fair
     * game (the worker cache role).
     */
    void setBudget(Bytes budget,
                   EvictionPolicyKind policy = EvictionPolicyKind::Lru,
                   bool refcount_protected = false);

    Bytes budget() const { return _budget; }

    /**
     * Add one reference to @p ref's chunk, storing it when absent.
     * @return true when the chunk was newly stored (the caller owes an
     * upload), false when deduplicated against an existing copy.
     * Budgeted stores enforce the cap before returning; @p now feeds
     * the eviction policy's prefetch-shield clock.
     */
    bool addRef(const ChunkRef &ref, Time now = 0);

    /**
     * Drop one reference; evicts the chunk when the count reaches
     * zero. @return true when this call evicted the chunk. Releasing
     * an absent hash is a no-op (returns false) so callers may release
     * manifests whose chunks were only partially admitted.
     */
    bool release(ChunkHash hash);

    /** Current reference count of @p hash (0 when absent). */
    std::int64_t refCount(ChunkHash hash) const;

    /**
     * @name Upload credit across rolled-back staging passes.
     * An aborted staging pass releases its references, but a chunk it
     * uploaded outlives that rollback when a concurrent pass has
     * referenced it meanwhile: its bytes are stored, yet no live pass
     * counted the upload. orphan() marks such a chunk and the next
     * pass to reference it claims the upload, so converged staging
     * counts every stored chunk as uploaded exactly once, crashes or
     * not.
     */
    /// @{

    /** Mark @p hash's upload as uncounted (no-op when absent). */
    void orphan(ChunkHash hash);

    /** Claim @p hash's orphaned upload: true once per orphan(). */
    bool claimOrphan(ChunkHash hash);
    /// @}

    /**
     * Record a serve of @p hash: bumps its LRU recency and sharing
     * score. No-op when absent. Pure bookkeeping — never changes
     * behaviour of an unbudgeted store.
     */
    void touch(ChunkHash hash);

    /**
     * Hard pin: @p hash is never an eviction victim while pinned.
     * Covers single-flight admissions and in-progress reads. Both are
     * no-ops when the hash is absent (an unbudgeted evict-at-zero may
     * race an unpin).
     */
    void pin(ChunkHash hash);
    void unpin(ChunkHash hash);

    /** Hard-pin count of @p hash (0 when absent; tests). */
    std::int64_t pinCount(ChunkHash hash) const;

    /**
     * Soft prefetch shield: mark @p hash as prefetched for a predicted
     * window ending at @p until (monotonic max; no-op when absent).
     * Only the PrefetchPinned policy honours it.
     */
    void pinUntil(ChunkHash hash, Time until);

    /**
     * Evict (policy-chosen) until resident stored bytes fit the
     * budget. Called by addRef on budgeted stores; public so callers
     * can re-enforce after pins drop. No-op when unbudgeted.
     */
    void enforceBudget(Time now);

    /** Distinct chunks currently stored. */
    std::int64_t chunkCount() const
    {
        return static_cast<std::int64_t>(chunks.size());
    }

    /** Stored (compressed) bytes of all resident chunks. */
    Bytes storedBytes() const { return _storedBytes; }

    /** Raw bytes of all resident chunks. */
    Bytes rawBytes() const { return _rawBytes; }

    /**
     * Of @p m's chunks, how many are resident here. With chunk sharing
     * this is the locality signal a routing policy can weigh: a worker
     * already holding most of a function's chunks restores it almost
     * locally even if it never ran the function.
     */
    std::int64_t residentChunks(const ChunkManifest &m) const;

    /** residentChunks() as a fraction of the manifest (0 when empty). */
    double residentFraction(const ChunkManifest &m) const;

    /** addRef() every chunk of @p m. @return newly stored bytes. */
    Bytes addManifest(const ChunkManifest &m);

    /** release() every chunk of @p m (absent chunks are skipped). */
    void releaseManifest(const ChunkManifest &m);

    const ChunkStoreStats &stats() const { return _stats; }
    void resetStats() { _stats = ChunkStoreStats{}; }

  private:
    struct Slot
    {
        Bytes rawBytes = 0;
        Bytes storedBytes = 0;
        std::int64_t refs = 0;

        /** Uploaded by a rolled-back pass, not yet claimed. */
        bool orphaned = false;

        /** @name Budget bookkeeping (inert while unbudgeted). */
        /// @{
        std::int64_t pins = 0;
        std::int64_t uses = 0;
        std::uint64_t lruSeq = 0;
        Time pinnedUntil = -1;
        /// @}
    };

    void erase(std::unordered_map<ChunkHash, Slot>::iterator it);

    std::unordered_map<ChunkHash, Slot> chunks;
    Bytes _storedBytes = 0;
    Bytes _rawBytes = 0;
    Bytes _budget = 0;
    bool refcountProtected = false;
    const EvictionPolicy *policy = nullptr;
    std::uint64_t lruCounter = 0;
    ChunkStoreStats _stats;
};

} // namespace vhive::storage

#endif // VHIVE_STORAGE_CHUNK_STORE_HH

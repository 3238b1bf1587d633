/**
 * @file
 * Sharded artifact store: N independent ObjectStore backends behind
 * one ArtifactStore surface. Each shard has its own stream bound and
 * stats, so fleet-scale cold-start storms show per-shard contention
 * (streamWaits/peakStreamQueue) instead of collapsing into one
 * aggregate. Placement is deterministic: chunks route by content hash
 * (Hash policy) or stick to the shard chosen when they were first
 * stored, preferring their function's scope shard (OverlapAware), so
 * repeated runs and different sim thread counts see identical routing.
 */

#ifndef VHIVE_NET_SHARDED_STORE_HH
#define VHIVE_NET_SHARDED_STORE_HH

#include <memory>
#include <utility>
#include <vector>

#include "net/object_store.hh"
#include "net/placement_table.hh"

namespace vhive::net {

/** How chunk uploads are spread across shards. */
enum class ChunkPlacementPolicy {
    /** Pure content hash: uniform spread, no locality. */
    Hash,

    /**
     * First store wins, preferring the uploading function's scope
     * shard: chunks of one function co-locate (fewer cross-shard
     * batches per cold start) while shared chunks keep the placement
     * of whichever function staged them first.
     */
    OverlapAware,
};

const char *placementPolicyName(ChunkPlacementPolicy policy);

/**
 * The pure content-hash shard choice (SplitMix64 of @p content mod
 * @p shards). Exposed so remote clients — the parallel fleet's store
 * ports — group batches exactly the way the server routes them.
 */
int hashShardOf(std::uint64_t content, int shards);

/** Configuration for a sharded store. */
struct ShardedStoreParams
{
    /** Number of shard backends (>= 1). */
    int shards = 1;

    /** Cost/stream parameters applied to every shard. */
    ObjectStoreParams shard = ObjectStoreParams::remote();

    ChunkPlacementPolicy placement = ChunkPlacementPolicy::Hash;
};

/**
 * N ObjectStores behind the ArtifactStore surface. With shards == 1
 * every operation routes to shard 0 and the behaviour (and stats) are
 * bit-identical to a bare ObjectStore, so the unsharded configuration
 * stays the regression baseline.
 */
class ShardedObjectStore final : public ArtifactStore
{
  public:
    ShardedObjectStore(sim::Simulation &sim,
                       ShardedStoreParams params = ShardedStoreParams{});

    ShardedObjectStore(const ShardedObjectStore &) = delete;
    ShardedObjectStore &operator=(const ShardedObjectStore &) = delete;

    sim::Task<void> get(Bytes bytes, PlacementKey key = {}) override;
    sim::Task<void> getRange(Bytes offset, Bytes bytes,
                             PlacementKey key = {}) override;
    sim::Task<void> put(Bytes bytes, PlacementKey key = {}) override;
    sim::Task<void> putChunk(Bytes stored_bytes,
                             PlacementKey key = {}) override;
    sim::Task<void> getChunks(std::int64_t chunks, Bytes stored_bytes,
                              PlacementKey key = {}) override;

    /**
     * Shard @p key routes to. Read path and Hash policy both use the
     * content hash; OverlapAware consults the placement table filled
     * in by putChunk() so reads follow writes.
     */
    int shardOf(PlacementKey key) const override;

    int shardCount() const override { return static_cast<int>(_shards.size()); }

    const ShardedStoreParams &params() const { return _params; }

    ObjectStore &shard(int i) { return *_shards[static_cast<size_t>(i)]; }
    const ObjectStore &shard(int i) const
    {
        return *_shards[static_cast<size_t>(i)];
    }

    /** Aggregate stats over all shards (sums; max of peak queue). */
    ObjectStoreStats stats() const;

    /** Per-shard stats rows, in shard order. */
    std::vector<ObjectStoreStats> shardStats() const;

    void resetStats();

    /**
     * Install @p plan on every shard. With one shard the tag is
     * @p prefix verbatim (keeping historical "store/shared" targets
     * working); with more, shard s tags as "<prefix>/<s>" so fault
     * specs can hit one shard ("store/shared/0") or, via the usual
     * glob target, every shard at once.
     */
    void setFaultPlan(const sim::FaultPlan *plan,
                      const std::string &prefix = "store");

    /**
     * Chunk placement decisions taken so far (content hash -> shard),
     * in insertion order, each chunk once. A placement never changes
     * after it is logged, so the parallel fleet ships each Adopt only
     * the entries logged since the previous one, and client-side batch
     * grouping matches server-side routing.
     */
    const std::vector<std::pair<std::uint64_t, int>> &placements() const
    {
        return _placementLog;
    }

    /** Adopt an externally decided placement (idempotent). */
    void recordPlacement(std::uint64_t content, int shard);

  private:
    int hashShard(std::uint64_t content) const;

    ShardedStoreParams _params;
    std::vector<std::unique_ptr<ObjectStore>> _shards;

    /** OverlapAware placement table: content hash -> owning shard. */
    PlacementTable _homes;

    /** Placement decisions in the order they were made. */
    std::vector<std::pair<std::uint64_t, int>> _placementLog;
};

} // namespace vhive::net

#endif // VHIVE_NET_SHARDED_STORE_HH

#include "net/sharded_store.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace vhive::net {

int
hashShardOf(std::uint64_t content, int shards)
{
    if (shards <= 1)
        return 0;
    return static_cast<int>(mix64(content) %
                            static_cast<std::uint64_t>(shards));
}

const char *
placementPolicyName(ChunkPlacementPolicy policy)
{
    switch (policy) {
      case ChunkPlacementPolicy::Hash:
        return "hash";
      case ChunkPlacementPolicy::OverlapAware:
        return "overlap";
    }
    return "?";
}

ShardedObjectStore::ShardedObjectStore(sim::Simulation &sim,
                                       ShardedStoreParams params)
    : _params(params)
{
    VHIVE_ASSERT(_params.shards >= 1);
    _shards.reserve(static_cast<size_t>(_params.shards));
    for (int i = 0; i < _params.shards; ++i)
        _shards.push_back(
            std::make_unique<ObjectStore>(sim, _params.shard));
}

int
ShardedObjectStore::hashShard(std::uint64_t content) const
{
    return hashShardOf(content, static_cast<int>(_shards.size()));
}

int
ShardedObjectStore::shardOf(PlacementKey key) const
{
    if (_shards.size() == 1)
        return 0;
    if (_params.placement == ChunkPlacementPolicy::OverlapAware) {
        if (int s = _homes.find(key.content); s >= 0)
            return s;
    }
    return hashShard(key.content);
}

void
ShardedObjectStore::recordPlacement(std::uint64_t content, int shard)
{
    VHIVE_ASSERT(shard >= 0 && shard < shardCount());
    if (_homes.insert(content, shard))
        _placementLog.emplace_back(content, shard);
}

sim::Task<void>
ShardedObjectStore::get(Bytes bytes, PlacementKey key)
{
    co_await shard(shardOf(key)).get(bytes);
}

sim::Task<void>
ShardedObjectStore::getRange(Bytes offset, Bytes bytes, PlacementKey key)
{
    co_await shard(shardOf(key)).getRange(offset, bytes);
}

sim::Task<void>
ShardedObjectStore::put(Bytes bytes, PlacementKey key)
{
    co_await shard(shardOf(key)).put(bytes);
}

sim::Task<void>
ShardedObjectStore::putChunk(Bytes stored_bytes, PlacementKey key)
{
    int s;
    if (_params.placement == ChunkPlacementPolicy::OverlapAware &&
        _shards.size() > 1) {
        s = _homes.find(key.content);
        if (s < 0) {
            // First store wins: co-locate with the uploading
            // function's scope shard.
            s = hashShard(key.scope != 0 ? key.scope : key.content);
        }
    } else {
        s = hashShard(key.content);
    }
    recordPlacement(key.content, s);
    co_await shard(s).putChunk(stored_bytes);
}

sim::Task<void>
ShardedObjectStore::getChunks(std::int64_t chunks, Bytes stored_bytes,
                              PlacementKey key)
{
    co_await shard(shardOf(key)).getChunks(chunks, stored_bytes);
}

ObjectStoreStats
ShardedObjectStore::stats() const
{
    ObjectStoreStats sum;
    for (const auto &s : _shards)
        mergeStoreStats(sum, s->stats());
    return sum;
}

std::vector<ObjectStoreStats>
ShardedObjectStore::shardStats() const
{
    std::vector<ObjectStoreStats> rows;
    rows.reserve(_shards.size());
    for (const auto &s : _shards)
        rows.push_back(s->stats());
    return rows;
}

void
ShardedObjectStore::resetStats()
{
    for (auto &s : _shards)
        s->resetStats();
}

void
ShardedObjectStore::setFaultPlan(const sim::FaultPlan *plan,
                                 const std::string &prefix)
{
    if (_shards.size() == 1) {
        _shards[0]->setFaultPlan(plan, prefix);
        return;
    }
    for (size_t i = 0; i < _shards.size(); ++i)
        _shards[i]->setFaultPlan(plan,
                                 prefix + "/" + std::to_string(i));
}

} // namespace vhive::net

/**
 * @file
 * Tests for the sharded artifact store (net/sharded_store.hh):
 * unsharded bit-compatibility with a bare ObjectStore, deterministic
 * chunk placement under both policies, per-shard stats fanning through
 * FleetStats, and per-shard fault targeting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/fleet_stats.hh"
#include "net/object_store.hh"
#include "net/sharded_store.hh"
#include "sim/simulation.hh"
#include "util/units.hh"

namespace vhive::net {
namespace {

sim::Task<void>
driveOps(ArtifactStore &store, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        std::uint64_t h = 0x9000 + static_cast<std::uint64_t>(i);
        co_await store.putChunk(64 * kKiB, {h, 0x42});
        co_await store.getChunks(1, 64 * kKiB, {h, 0x42});
        co_await store.put(kMiB, {h, h});
        co_await store.getRange(0, 256 * kKiB, {h, h});
    }
}

TEST(ShardedStore, UnshardedMatchesBareObjectStore)
{
    // shards == 1 is the regression baseline: same op sequence, same
    // stats as a bare ObjectStore, field for field.
    sim::Simulation sim;
    ObjectStore bare(sim, ObjectStoreParams::remote());
    ShardedObjectStore sharded(sim, ShardedStoreParams{});

    sim.spawn(driveOps(bare, 8));
    sim.spawn(driveOps(sharded, 8));
    sim.run();

    const ObjectStoreStats &a = bare.stats();
    ObjectStoreStats b = sharded.stats();
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.puts, b.puts);
    EXPECT_EQ(a.rangedGets, b.rangedGets);
    EXPECT_EQ(a.bytesServed, b.bytesServed);
    EXPECT_EQ(a.bytesStored, b.bytesStored);
    EXPECT_EQ(a.chunkPuts, b.chunkPuts);
    EXPECT_EQ(a.chunkBatches, b.chunkBatches);
    EXPECT_EQ(a.chunksServed, b.chunksServed);
    EXPECT_EQ(a.streamWaits, b.streamWaits);
    EXPECT_EQ(a.streamWaitTime, b.streamWaitTime);
    EXPECT_EQ(a.peakStreamQueue, b.peakStreamQueue);
}

TEST(ShardedStore, HashPlacementIsDeterministicAndSpreads)
{
    sim::Simulation sim;
    ShardedStoreParams sp;
    sp.shards = 4;
    ShardedObjectStore store(sim, sp);

    std::vector<int> counts(4, 0);
    for (std::uint64_t h = 1; h <= 256; ++h) {
        int s = store.shardOf({h, 0});
        EXPECT_EQ(s, hashShardOf(h, 4));
        EXPECT_EQ(s, store.shardOf({h, 0})); // stable
        ++counts[static_cast<size_t>(s)];
    }
    // SplitMix64 spreads 256 keys across 4 shards reasonably evenly.
    for (int c : counts) {
        EXPECT_GT(c, 32);
        EXPECT_LT(c, 96);
    }
}

TEST(ShardedStore, OverlapAwarePlacementFirstWriterWins)
{
    sim::Simulation sim;
    ShardedStoreParams sp;
    sp.shards = 8;
    sp.placement = ChunkPlacementPolicy::OverlapAware;
    ShardedObjectStore store(sim, sp);

    const std::uint64_t scope_a = 0xaaa, scope_b = 0xbbb;
    sim.spawn([](ShardedObjectStore &store, std::uint64_t a,
                 std::uint64_t b) -> sim::Task<void> {
        // Function A stages chunks 1..8; the shared chunk 5 is later
        // re-staged by function B but must keep A's placement.
        for (std::uint64_t h = 1; h <= 8; ++h)
            co_await store.putChunk(64 * kKiB, {h, a});
        co_await store.putChunk(64 * kKiB, {5, b});
    }(store, scope_a, scope_b));
    sim.run();

    // All of A's chunks co-locate on A's scope shard.
    int home_a = hashShardOf(scope_a, 8);
    for (std::uint64_t h = 1; h <= 8; ++h)
        EXPECT_EQ(store.shardOf({h, scope_a}), home_a);
    // The shared chunk kept its first placement (A's shard), found
    // through B's scope too — reads follow writes.
    EXPECT_EQ(store.shardOf({5, scope_b}), home_a);

    // The placement log recorded each chunk exactly once.
    EXPECT_EQ(store.placements().size(), 8u);

    // An identically driven second store makes identical decisions.
    ShardedObjectStore other(sim, sp);
    for (const auto &[hash, shard] : store.placements())
        other.recordPlacement(hash, shard);
    for (std::uint64_t h = 1; h <= 8; ++h)
        EXPECT_EQ(other.shardOf({h, scope_a}),
                  store.shardOf({h, scope_a}));
}

TEST(ShardedStore, ShardStatsSumToAggregate)
{
    sim::Simulation sim;
    ShardedStoreParams sp;
    sp.shards = 4;
    ShardedObjectStore store(sim, sp);
    sim.spawn(driveOps(store, 32));
    sim.run();

    ObjectStoreStats sum;
    std::int64_t peak = 0;
    for (const ObjectStoreStats &row : store.shardStats()) {
        net::mergeStoreStats(sum, row);
        peak = std::max(peak, row.peakStreamQueue);
    }
    ObjectStoreStats agg = store.stats();
    EXPECT_EQ(agg.gets, sum.gets);
    EXPECT_EQ(agg.puts, sum.puts);
    EXPECT_EQ(agg.chunkPuts, sum.chunkPuts);
    EXPECT_EQ(agg.bytesServed, sum.bytesServed);
    EXPECT_EQ(agg.bytesStored, sum.bytesStored);
    EXPECT_EQ(agg.streamWaits, sum.streamWaits);
    EXPECT_EQ(agg.peakStreamQueue, peak);
    // Work actually landed on more than one shard.
    int used = 0;
    for (const ObjectStoreStats &row : store.shardStats())
        used += row.gets + row.puts + row.chunkPuts > 0;
    EXPECT_GT(used, 1);
}

TEST(ShardedStore, ClusterFleetStatsCarryPerShardRows)
{
    // End to end: a tiered-shared cluster over a 4-shard store
    // exports both the aggregate and the agreeing per-shard rows.
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 4;
    cluster::Cluster cl(sim, cfg);
    cl.deploy(func::functionBench()[0]);
    cl.deploy(func::functionBench()[1]);

    sim.spawn([](cluster::Cluster &cl) -> sim::Task<void> {
        co_await cl.prepareAllSnapshots();
        (void)co_await cl.invoke(func::functionBench()[0].name);
        (void)co_await cl.invoke(func::functionBench()[1].name);
    }(cl));
    sim.run();

    cluster::FleetStats fs = cl.fleetStats();
    ASSERT_EQ(static_cast<int>(fs.storeShards.size()), 4);
    ObjectStoreStats sum;
    for (const ObjectStoreStats &row : fs.storeShards)
        net::mergeStoreStats(sum, row);
    EXPECT_EQ(fs.store.gets, sum.gets);
    EXPECT_EQ(fs.store.puts, sum.puts);
    EXPECT_EQ(fs.store.bytesStored, sum.bytesStored);
    EXPECT_GT(fs.store.puts + fs.store.chunkPuts, 0);
}

} // namespace
} // namespace vhive::net

#include "mem/chunk_source.hh"

#include <algorithm>
#include <set>
#include <vector>

#include "util/logging.hh"

namespace vhive::mem {

ChunkPageSource::ChunkPageSource(sim::Simulation &sim,
                                 net::ArtifactStore &store,
                                 const storage::ChunkManifest &manifest,
                                 storage::ChunkStore *resident_cache,
                                 ChunkFlights *flights,
                                 std::uint64_t scope)
    : sim(sim), store(store), manifest(manifest), scope(scope),
      cache(resident_cache != nullptr ? resident_cache : &ownedCache),
      flights(flights != nullptr ? flights : &ownedFlights)
{
    cacheRow.label = "chunk-cache";
    remoteRow.label = "chunk-remote";
}

sim::Task<void>
ChunkPageSource::read(Bytes offset, Bytes len)
{
    auto [first, last] = manifest.chunkSpan(offset, len);

    // Classify the span synchronously (no suspension between the
    // residency check and the flight registration): resident chunks
    // cost a local copy; chunks some other read is already fetching
    // are waited for (single-flight — never transferred twice, never
    // counted resident before their bytes arrive); the rest this read
    // fetches itself, registering a flight gate per chunk.
    std::vector<size_t> missing;
    std::vector<std::shared_ptr<sim::Gate>> waits;
    std::vector<storage::ChunkHash> held;
    std::set<storage::ChunkHash> wait_seen;
    std::int64_t cache_chunks = 0, wait_chunks = 0;
    Bytes cache_portion = 0, wait_portion = 0, remote_portion = 0;
    for (size_t i = first; i <= last; ++i) {
        const storage::ChunkRef &ref = manifest.chunks[i];
        Bytes cstart = static_cast<Bytes>(i) * manifest.chunkBytes;
        Bytes portion = std::min(offset + len, cstart + ref.rawBytes) -
                        std::max(offset, cstart);
        if (cache->contains(ref.hash)) {
            // Serve-from-cache: recency for the eviction policy, and
            // a hard pin so a budgeted cache never sheds the chunk
            // between this classification and the copy below.
            cache->touch(ref.hash);
            cache->pin(ref.hash);
            held.push_back(ref.hash);
            ++cache_chunks;
            cache_portion += portion;
            continue;
        }
        auto it = flights->find(ref.hash);
        if (it != flights->end()) {
            if (wait_seen.insert(ref.hash).second)
                waits.push_back(it->second);
            ++wait_chunks;
            wait_portion += portion;
            continue;
        }
        flights->emplace(ref.hash,
                         std::make_shared<sim::Gate>(sim));
        missing.push_back(i);
        remote_portion += portion;
    }

    if (!missing.empty()) {
        ++cacheRow.misses;
        Time t0 = sim.now();
        // Group the missing chunks by the shard that stores them so
        // each batched GET hits exactly one shard. For an unsharded
        // store shardOf() is always 0, collapsing to the historical
        // one-group ordering (bit-identical batches).
        std::map<int, std::vector<size_t>> by_shard;
        for (size_t i : missing) {
            const storage::ChunkRef &ref = manifest.chunks[i];
            by_shard[store.shardOf({ref.hash, scope})].push_back(i);
        }
        // Batched ranged GETs of the compressed bytes, then a
        // decompression pass per arriving batch. Only after a batch
        // lands are its chunks admitted into the resident cache and
        // their flight gates opened. A single group issues inline
        // (bit-identical to the historical unsharded ordering);
        // multiple shard groups issue concurrently, overlapping the
        // per-shard batch RTTs that overlap-aware placement trades
        // for its waits collapse.
        if (by_shard.size() == 1) {
            co_await fetchGroup(std::move(by_shard.begin()->second), 0);
        } else {
            sim::Latch done(sim, 0);
            for (auto &[shard, group] : by_shard) {
                (void)shard;
                done.spawn(fetchGroup(std::move(group), 0));
            }
            co_await done.wait();
        }
        ++remoteRow.hits;
        remoteRow.bytes += remote_portion;
        remoteRow.time += sim.now() - t0;
    }

    if (!waits.empty()) {
        // In-flight elsewhere: wait for the owning fetch to land the
        // bytes, then pay the local copy — honest latency, and the
        // chunk was moved over the network exactly once.
        Time t0 = sim.now();
        for (const auto &gate : waits)
            co_await gate->wait();
        co_await sim.delay(
            params.perChunkCacheCopy * wait_chunks +
            static_cast<Duration>(static_cast<double>(wait_portion) /
                                  params.cacheBandwidth * 1e9));
        ++cacheRow.hits;
        cacheRow.bytes += wait_portion;
        cacheRow.time += sim.now() - t0;
        _chunkStats.cacheChunks += wait_chunks;
        _chunkStats.rawBytesFromCache += wait_portion;
    }

    if (cache_chunks > 0) {
        Time t0 = sim.now();
        co_await sim.delay(
            params.perChunkCacheCopy * cache_chunks +
            static_cast<Duration>(static_cast<double>(cache_portion) /
                                  params.cacheBandwidth * 1e9));
        ++cacheRow.hits;
        cacheRow.bytes += cache_portion;
        cacheRow.time += sim.now() - t0;
        _chunkStats.cacheChunks += cache_chunks;
        _chunkStats.rawBytesFromCache += cache_portion;
    }

    for (storage::ChunkHash h : held)
        cache->unpin(h);
}

sim::Task<void>
ChunkPageSource::fetchGroup(std::vector<size_t> group, Duration pace,
                            Time pin_until)
{
    // Admissions stay hard-pinned until the whole group lands: later
    // batches' budget enforcement must not shed a chunk this fetch
    // just paid for before its reader ever copies it.
    std::vector<storage::ChunkHash> held;
    held.reserve(group.size());
    for (size_t b = 0; b < group.size();
         b += static_cast<size_t>(params.batchChunks)) {
        size_t n = std::min<size_t>(
            static_cast<size_t>(params.batchChunks),
            group.size() - b);
        Bytes stored_sum = 0, raw_sum = 0, compressed_raw = 0;
        for (size_t k = b; k < b + n; ++k) {
            const storage::ChunkRef &ref = manifest.chunks[group[k]];
            stored_sum += ref.storedBytes;
            raw_sum += ref.rawBytes;
            if (ref.storedBytes < ref.rawBytes)
                compressed_raw += ref.rawBytes;
        }
        co_await store.getChunks(static_cast<std::int64_t>(n),
                                 stored_sum,
                                 {manifest.chunks[group[b]].hash,
                                  scope});
        Duration decompress =
            params.perChunkDecompress * static_cast<Duration>(n) +
            static_cast<Duration>(
                static_cast<double>(compressed_raw) /
                params.decompressBandwidth * 1e9);
        co_await sim.delay(decompress);
        for (size_t k = b; k < b + n; ++k) {
            const storage::ChunkRef &ref = manifest.chunks[group[k]];
            cache->addRef(ref, sim.now());
            cache->pin(ref.hash);
            held.push_back(ref.hash);
            if (pin_until >= 0)
                cache->pinUntil(ref.hash, pin_until);
            auto it = flights->find(ref.hash);
            if (it != flights->end()) {
                it->second->openGate();
                flights->erase(it);
            }
        }
        _chunkStats.remoteChunks += static_cast<std::int64_t>(n);
        _chunkStats.storedBytesFetched += stored_sum;
        _chunkStats.rawBytesFetched += raw_sum;
        cacheRow.admissions += static_cast<std::int64_t>(n);
        cacheRow.bytesAdmitted += raw_sum;
        if (pace > 0 && b + n < group.size())
            co_await sim.delay(pace);
    }
    for (storage::ChunkHash h : held)
        cache->unpin(h);
    // Pins held across the group may have blocked reclamation; settle
    // the budget now that they are gone.
    cache->enforceBudget(sim.now());
}

sim::Task<void>
ChunkPageSource::readAll()
{
    co_await read(0, manifest.rawBytes());
}

sim::Task<Bytes>
ChunkPageSource::prefetchMissing(Duration pace, Time pin_until)
{
    Bytes before = _chunkStats.rawBytesFetched;
    // Claim every chunk neither resident nor in flight (no suspension
    // between the check and the flight registration), grouped by the
    // shard that stores it. Already-resident chunks still get the
    // prefetch shield — the predictor asked for the whole manifest to
    // survive until its window.
    std::map<int, std::vector<size_t>> by_shard;
    for (size_t i = 0; i < manifest.chunks.size(); ++i) {
        const storage::ChunkRef &ref = manifest.chunks[i];
        if (cache->contains(ref.hash)) {
            if (pin_until >= 0)
                cache->pinUntil(ref.hash, pin_until);
            continue;
        }
        if (flights->count(ref.hash))
            continue;
        flights->emplace(ref.hash, std::make_shared<sim::Gate>(sim));
        by_shard[store.shardOf({ref.hash, scope})].push_back(i);
    }
    // Background priority: one shard group at a time, paced batches —
    // unlike read(), which fans groups out for latency.
    for (auto &[shard, group] : by_shard) {
        (void)shard;
        co_await fetchGroup(std::move(group), pace, pin_until);
    }
    co_return _chunkStats.rawBytesFetched - before;
}

std::vector<TierStats>
ChunkPageSource::tierStats() const
{
    TierStats c = cacheRow;
    c.residentBytes = cache->storedBytes();
    c.peakResidentBytes = cache->stats().peakStoredBytes;
    c.bytesEvicted = cache->stats().budgetEvictedBytes;
    return {c, remoteRow};
}

} // namespace vhive::mem

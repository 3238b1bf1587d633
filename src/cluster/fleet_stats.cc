#include "cluster/fleet_stats.hh"

#include <algorithm>
#include <bit>

#include "cluster/snapshot_registry.hh"
#include "core/loader/builtin_loaders.hh"
#include "core/orchestrator.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vhive::cluster {

namespace {

/** FNV-1a accumulation of one ObjectStoreStats row. */
void
fnvMixStats(std::uint64_t &h, const net::ObjectStoreStats &s)
{
    for (std::int64_t v :
         {s.gets, s.puts, s.rangedGets, s.bytesServed, s.bytesStored,
          s.chunkPuts, s.chunkBatches, s.chunksServed, s.streamWaits,
          s.streamWaitTime, s.peakStreamQueue, s.requestRetries,
          s.outageStalls})
        fnvMix(h, static_cast<std::uint64_t>(v));
}

} // namespace

core::WorkerConfig
FleetConfig::workerConfig(int w) const
{
    core::WorkerConfig wc = worker;
    wc.seed = worker.seed + static_cast<std::uint64_t>(w);
    return wc;
}

net::ShardedStoreParams
FleetConfig::sharedStoreParams() const
{
    net::ShardedStoreParams sp;
    sp.shards = sharedStoreShards;
    sp.shard = sharedStore;
    sp.placement = chunkPlacement;
    return sp;
}

void
checkFleetConfig(const char *engine, const FleetConfig &cfg, int workers,
                 int sim_threads)
{
    if (workers < 1)
        fatal("%s: workers must be >= 1 (got %d)", engine, workers);
    if (cfg.sharedStoreShards < 1)
        fatal("%s: sharedStoreShards must be >= 1 (got %d)", engine,
              cfg.sharedStoreShards);
    if (sim_threads < 1)
        fatal("%s: simThreads must be >= 1 (got %d)", engine,
              sim_threads);
    if (cfg.sharedSnapshots)
        (void)core::loader::sharedStagingPreset(cfg.coldStartMode);
}

std::uint64_t
FleetStats::digest() const
{
    std::uint64_t h = kFnvOffsetBasis;
    for (std::int64_t v :
         {invocations, coldStarts, warmHits, scaleDowns, preWarms,
          preWarmHits, eventsProcessed, windows, messages,
          snapshotBuilds, stagedBytes, dedupSavedBytes, chunksUploaded,
          chunksDeduped, remoteArtifactFetches, bgPrefetches,
          pageCachePeakBytes, pageCacheEvictedBytes,
          workerChunkPeakBytes, workerChunkBudgetEvictions,
          ssdEvictions, peakSsdBytes, fleetChunkPeakBytes,
          fleetChunkBudgetEvictions})
        fnvMix(h, static_cast<std::uint64_t>(v));
    fnvMixStats(h, store);
    fnvMix(h, static_cast<std::uint64_t>(storeShards.size()));
    for (const net::ObjectStoreStats &row : storeShards)
        fnvMixStats(h, row);
    for (const Samples *s : {&e2eLatencyMs, &coldE2eMs, &warmE2eMs}) {
        fnvMix(h, static_cast<std::uint64_t>(s->count()));
        for (double v : s->values())
            fnvMix(h, std::bit_cast<std::uint64_t>(v));
    }
    return h;
}

void
mergeTierRow(std::vector<core::TierBreakdown> &into,
             const core::TierBreakdown &row)
{
    for (auto &t : into) {
        if (t.tier == row.tier) {
            t.hits += row.hits;
            t.misses += row.misses;
            t.admissions += row.admissions;
            t.bytes += row.bytes;
            // Resident/peak/evicted are cumulative worker-wide
            // samples (each cold's row carries the counter's value at
            // that instant), not per-invocation increments: summing
            // would multiply-count them, so merge by max — the
            // highest (for the monotonic counters, latest) sample.
            t.residentBytes =
                std::max(t.residentBytes, row.residentBytes);
            t.peakResidentBytes =
                std::max(t.peakResidentBytes, row.peakResidentBytes);
            t.bytesEvicted =
                std::max(t.bytesEvicted, row.bytesEvicted);
            t.time += row.time;
            return;
        }
    }
    into.push_back(row);
}

void
mergeStoreStats(net::ObjectStoreStats &a, const net::ObjectStoreStats &b)
{
    a.gets += b.gets;
    a.puts += b.puts;
    a.rangedGets += b.rangedGets;
    a.bytesServed += b.bytesServed;
    a.bytesStored += b.bytesStored;
    a.streamWaits += b.streamWaits;
    a.streamWaitTime += b.streamWaitTime;
    a.peakStreamQueue =
        std::max(a.peakStreamQueue, b.peakStreamQueue);
    a.chunkPuts += b.chunkPuts;
    a.chunkBatches += b.chunkBatches;
    a.chunksServed += b.chunksServed;
    a.requestRetries += b.requestRetries;
    a.outageStalls += b.outageStalls;
}

void
addWorkerEconomics(FleetStats &fs, const core::Orchestrator &orch)
{
    fs.pageCachePeakBytes += orch.tierBudget().peakResidentBytes();
    fs.pageCacheEvictedBytes += orch.tierBudget().evictedBytes();
    const auto &cc = orch.localChunkCache().stats();
    fs.workerChunkPeakBytes += cc.peakStoredBytes;
    fs.workerChunkBudgetEvictions += cc.budgetEvictions;
    fs.ssdEvictions += orch.ssdEvictions();
    fs.peakSsdBytes += orch.peakSsdBytes();
}

void
addRegistryStaging(FleetStats &fs, const SnapshotRegistry &reg)
{
    reg.forEachArtifact([&fs](const StagedArtifact &art) {
        fs.snapshotBuilds += art.builds;
        fs.stagedBytes += art.stagedBytes;
        fs.remoteArtifactFetches += art.remoteFetches;
        fs.chunkLogicalBytes += art.logicalBytes;
        fs.dedupSavedBytes += art.dedupSavedBytes;
        fs.chunksUploaded += art.chunksUploaded;
        fs.restages += art.restages;
        if (art.staged) {
            fs.fetchFanIn += art.fetchFanIn();
            fs.deltaChunksUploaded += art.deltaChunksUploaded;
            fs.deltaBytesUploaded += art.deltaBytesUploaded;
        }
    });
    const storage::ChunkStore &idx = reg.chunkIndex();
    fs.chunkStoredBytes += idx.storedBytes();
    fs.chunksStored += idx.chunkCount();
    fs.chunksDeduped += idx.stats().dedupHits;
    fs.fleetChunkPeakBytes += idx.stats().peakStoredBytes;
    fs.fleetChunkBudgetEvictions += idx.stats().budgetEvictions;
    fs.retires += reg.retires();
    fs.gcReleasedBytes += reg.gcReleasedBytes();
}

} // namespace vhive::cluster

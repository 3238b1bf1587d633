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
FleetStats::outcomeDigest() const
{
    std::uint64_t h = kFnvOffsetBasis;
    for (std::int64_t v :
         {invocations, coldStarts, warmHits, scaleDowns, preWarms,
          preWarmHits, snapshotBuilds, stagedBytes, dedupSavedBytes,
          chunksUploaded, chunksDeduped, remoteArtifactFetches,
          bgPrefetches,
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

std::uint64_t
FleetStats::digest() const
{
    std::uint64_t h = kFnvOffsetBasis;
    for (std::int64_t v :
         {static_cast<std::int64_t>(outcomeDigest()), eventsProcessed,
          windows, messages})
        fnvMix(h, static_cast<std::uint64_t>(v));
    return h;
}

void
FleetStats::noteInvocation(Duration e2e, bool cold, bool failed)
{
    ++invocations;
    e2eLatencyMs.add(toMs(e2e));
    if (failed) {
        ++failedInvocations;
    } else if (cold) {
        ++coldStarts;
        coldE2eMs.add(toMs(e2e));
    } else {
        ++warmHits;
        warmE2eMs.add(toMs(e2e));
    }
}

void
mergeTierRow(std::vector<mem::TierStats> &into,
             const mem::TierStats &row)
{
    for (auto &t : into) {
        if (t.label == row.label) {
            t.hits += row.hits;
            t.misses += row.misses;
            t.admissions += row.admissions;
            t.bytes += row.bytes;
            t.bytesAdmitted += row.bytesAdmitted;
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
WorkerFleetRow::note(const core::LatencyBreakdown &bd)
{
    if (bd.crashed)
        return;
    if (!bd.cold) {
        ++warmHits;
        return;
    }
    ++coldStarts;
    for (const auto &t : bd.tierHits)
        mergeTierRow(tierHits, t);
}

void
WorkerFleetRow::noteIdle(const core::Orchestrator &orch, Duration dt)
{
    double sec = static_cast<double>(dt) / 1e9;
    wastedResidentByteSec +=
        static_cast<double>(orch.idleResidentBytes()) * sec;
    idleWarmInstanceSec +=
        static_cast<double>(orch.idleInstanceTotal()) * sec;
}

void
addWorkerFold(FleetStats &fs, int w, const core::Worker &worker,
              const WorkerFleetRow &row, bool shared)
{
    const core::Orchestrator &orch = worker.orchestrator();
    WorkerFleetRow &r = fs.perWorker.emplace_back(row);
    r.worker = w;
    r.residentBytes = orch.totalResidentBytes();
    fs.residentBytes += r.residentBytes;
    for (const auto &t : r.tierHits)
        mergeTierRow(fs.tierHits, t);
    fs.wastedResidentByteSec += r.wastedResidentByteSec;
    fs.idleWarmInstanceSec += r.idleWarmInstanceSec;
    fs.scaleDowns += r.scaleDowns;

    fs.wastedPreWarms += orch.wastedPreWarms();
    fs.bgPrefetches += orch.backgroundPrefetches();
    orch.forEachStats([&](const core::FunctionStats &st) {
        fs.preWarms += st.preWarms;
        fs.preWarmHits += st.preWarmHits;
        if (!shared) {
            // Worker-local staging: delta accounting lives in the
            // per-function stats (the registry's under sharing).
            fs.restages += st.deltaRestages;
            fs.deltaChunksUploaded += st.deltaChunksUploaded;
            fs.deltaBytesUploaded += st.deltaBytesUploaded;
        }
    });

    fs.pageCachePeakBytes += orch.tierBudget().peakResidentBytes();
    fs.pageCacheEvictedBytes += orch.tierBudget().evictedBytes();
    const auto &cc = orch.localChunkCache().stats();
    fs.workerChunkPeakBytes += cc.peakStoredBytes;
    fs.workerChunkBudgetEvictions += cc.budgetEvictions;
    fs.ssdEvictions += orch.ssdEvictions();
    fs.peakSsdBytes += orch.peakSsdBytes();

    if (!shared) {
        fs.snapshotBuilds += orch.snapshotBuilds();
        net::mergeStoreStats(fs.store, worker.objectStore().stats());
    }
}

bool
keepAliveExpired(const core::Orchestrator &orch, const std::string &name,
                 Time last_used, Time now, Duration keep_alive)
{
    return orch.idleInstanceCount(name) > 0 &&
           now - last_used >= keep_alive;
}

sim::Task<bool>
scaleDownIdle(core::Orchestrator &orch, const std::string &name,
              WorkerFleetRow &row)
{
    std::int64_t stopped = co_await orch.stopIdleInstances(name);
    if (stopped > 0)
        ++row.scaleDowns;
    co_return stopped > 0;
}

sim::Task<bool>
preWarmInstance(core::Orchestrator &orch, const std::string &name,
                core::ColdStartMode mode)
{
    core::LatencyBreakdown bd =
        co_await orch.preWarm(name, core::loader::preWarmModeFor(mode));
    co_return bd.total > 0 && !bd.crashed;
}

ControlTickContext
controlTickSnapshot(const FleetView &fleet, const FleetStats &tally,
                    Time now, const std::vector<std::string> &names)
{
    ControlTickContext ctx;
    ctx.now = now;
    ctx.workers = fleet.workerCount();
    ctx.coldP99Ms = tally.coldE2eMs.count() > 0 ? tally.coldP99() : 0.0;
    ctx.coldStarts = tally.coldStarts;
    ctx.functions.reserve(names.size());
    for (const std::string &name : names) {
        ControlFunctionView &v = ctx.functions.emplace_back();
        v.name = name;
        v.homeWorker = LocalityHashPolicy::homeWorker(name, ctx.workers);
        for (int w = 0; w < ctx.workers; ++w)
            v.idleInstances += fleet.idleInstances(w, name);
        v.warming = fleet.warming(name);
        v.homeChunkResidency = fleet.chunkResidency(v.homeWorker, name);
    }
    return ctx;
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

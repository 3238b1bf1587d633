/**
 * @file
 * Golden-trace regression harness: every registered ColdStartMode is
 * run through the Fig. 7 per-segment breakdown on helloworld and the
 * exact (nanosecond-integer) output is diffed against a checked-in
 * baseline. Loader or pipeline refactors that shift any published
 * segment fail this test; an intentional recalibration regenerates
 * the baseline:
 *
 *   VHIVE_UPDATE_GOLDEN=1 ./test_golden
 *
 * The companion test asserts the breakdown itself is bit-identical
 * across two independent simulation runs — the determinism the golden
 * diff relies on.
 *
 * Three more baselines pin the remote cold-start family and the fleet
 * engines built on it, so a refactor proves "no behaviour change" with
 * one ctest instead of a manual bench diff:
 *   - remote_presets.txt: every remote mode across a ReapOptions
 *     matrix — breakdowns, tier rows and store traffic per cold start;
 *   - fleet_digests.txt: FleetStats::digest() of the shared tiered,
 *     shared dedup and traffic-driven ParallelFleet runs, plus exact
 *     FleetStats rows of sequential Cluster runs with registry
 *     staging, a delta restage and a full retire — both engines
 *     report the one FleetStats type;
 *   - trace_digests.txt: digests (util/rng.hh fnvMix, the same FNV-1a
 *     helper FleetStats::digest() uses) of the synthesized access
 *     traces (invocations 0-15 and boot) of every FunctionBench
 *     profile, one draw per SeBS function class and one
 *     traffic-population profile, so trace-synthesis rewrites prove
 *     bit-identity.
 * Each regenerates alone, e.g.
 *   VHIVE_UPDATE_GOLDEN=1 ./test_golden --gtest_filter='*RemotePresets*'
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/traffic.hh"
#include "core/loader/loader.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "net/object_store.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

#ifndef VHIVE_GOLDEN_DIR
#error "VHIVE_GOLDEN_DIR must point at the checked-in golden files"
#endif

namespace vhive {
namespace {

using core::ColdStartMode;
using core::InvokeOptions;
using core::Worker;
using core::WorkerConfig;
using sim::Simulation;
using sim::Task;

template <typename Fn>
void
runScenario(Simulation &sim, Fn &&body)
{
    struct Runner {
        static Task<void>
        run(Fn &body)
        {
            co_await body();
        }
    };
    sim.spawn(Runner::run(body));
    sim.run();
}

void
appendBreakdown(std::ostringstream &out, const std::string &label,
                const core::LatencyBreakdown &bd)
{
    out << "mode=" << label << " loadVmm=" << bd.loadVmm
        << " fetchWs=" << bd.fetchWs << " installWs=" << bd.installWs
        << " connRestore=" << bd.connRestore
        << " processing=" << bd.processing << " total=" << bd.total
        << " prefetched=" << bd.prefetchedPages
        << " residual=" << bd.residualFaults << "\n";
    for (const auto &t : bd.tierHits) {
        out << "  tier=" << t.tier << " hits=" << t.hits
            << " misses=" << t.misses << " admitted=" << t.admissions
            << " bytes=" << t.bytes << " time=" << t.time << "\n";
    }
}

/**
 * The Fig. 7 walk over every registered mode, rendered as exact
 * integers. One flushed, forced-cold invocation per mode, after a
 * shared record phase; TieredReap is rendered twice — fresh worker
 * (full chain walk to the remote tier) and warmed (admitted local
 * copy) — since tier placement is the mode's design axis.
 */
std::string
renderBreakdowns()
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    Worker w(sim, cfg);
    std::ostringstream out;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        // Shared record phase (Sec. 5.2.1).
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap);

        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        for (ColdStartMode mode : orch.loaders().modes()) {
            const char *label =
                orch.loaders().loaderFor(mode).name();
            if (mode == ColdStartMode::TieredReap ||
                mode == ColdStartMode::DedupReap) {
                // RemoteReap already staged the artifacts, so stage
                // invalidation never ran: evict explicitly to render
                // the fresh-worker chain walk (for DedupReap: the
                // chunked remote path), then the warmed one.
                orch.evictLocalArtifacts("helloworld");
                auto fresh = co_await orch.invoke("helloworld", mode,
                                                  opts);
                appendBreakdown(out, std::string(label) + "[fresh]",
                                fresh);
                auto warmed = co_await orch.invoke("helloworld", mode,
                                                   opts);
                appendBreakdown(out, std::string(label) + "[warmed]",
                                warmed);
                continue;
            }
            auto bd = co_await orch.invoke("helloworld", mode, opts);
            appendBreakdown(out, label, bd);
        }
    });
    return out.str();
}

/**
 * Diff @p actual against the checked-in golden @p file, or rewrite the
 * file when VHIVE_UPDATE_GOLDEN is set (select one baseline with
 * --gtest_filter to leave the others untouched).
 */
void
expectGolden(const std::string &file, const std::string &actual)
{
    const std::string path = std::string(VHIVE_GOLDEN_DIR) + "/" + file;
    if (std::getenv("VHIVE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        std::printf("regenerated %s\n", path.c_str());
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing " << path
        << " — generate it with VHIVE_UPDATE_GOLDEN=1 ./test_golden";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << file << " drifted from the checked-in baseline.\nIf the "
           "change is an intentional model or calibration change, "
           "regenerate\nwith VHIVE_UPDATE_GOLDEN=1 ./test_golden and "
           "commit the diff.";
}

TEST(GoldenTrace, Fig7BreakdownMatchesCheckedInBaseline)
{
    expectGolden("fig7_breakdown.txt", renderBreakdowns());
}

TEST(GoldenTrace, BreakdownBitIdenticalAcrossRuns)
{
    // Two independent simulations must render byte-identical output;
    // this is the determinism the golden diff above stands on.
    EXPECT_EQ(renderBreakdowns(), renderBreakdowns());
}

// ------------------------------------------------- remote presets

void
appendStore(std::ostringstream &out, const net::ObjectStoreStats &s)
{
    out << "  store gets=" << s.gets << " ranged=" << s.rangedGets
        << " puts=" << s.puts << " chunkPuts=" << s.chunkPuts
        << " chunkBatches=" << s.chunkBatches
        << " chunksServed=" << s.chunksServed
        << " served=" << s.bytesServed << " stored=" << s.bytesStored
        << "\n";
}

void
appendTiers(std::ostringstream &out,
            const std::vector<core::TierBreakdown> &rows)
{
    for (const auto &t : rows) {
        out << "  tier=" << t.tier << " hits=" << t.hits
            << " misses=" << t.misses << " admitted=" << t.admissions
            << " bytes=" << t.bytes << " resident=" << t.residentBytes
            << " peak=" << t.peakResidentBytes
            << " evicted=" << t.bytesEvicted << " time=" << t.time
            << "\n";
    }
}

/** The ReapOptions matrix every remote preset is pinned under. */
std::vector<std::pair<std::string, core::ReapOptions>>
reapMatrix()
{
    std::vector<std::pair<std::string, core::ReapOptions>> m;
    core::ReapOptions r;
    m.emplace_back("defaults", r);
    r = {};
    r.tieredWindowBytes = -1;
    m.emplace_back("window=-1", r);
    r = {};
    r.tieredWindowBytes = 0;
    m.emplace_back("window=0", r);
    r = {};
    r.admitAfterHits = 2;
    m.emplace_back("admitAfterHits=2", r);
    r = {};
    r.hedgeAfter = usec(300);
    m.emplace_back("hedgeAfter=300us", r);
    r = {};
    r.overlapFetchWithVmmLoad = true;
    m.emplace_back("overlap", r);
    r = {};
    r.tieredLocalTier = false;
    m.emplace_back("noLocalTier", r);
    r = {};
    r.tieredPageCacheTier = false;
    m.emplace_back("noPageCacheTier", r);
    r = {};
    r.tieredFreshWorker = false;
    m.emplace_back("noFreshWorker", r);
    return m;
}

/**
 * One worker, helloworld, artifacts in a remote store: the record
 * phase, then three flushed forced-cold starts (fresh, then warmed
 * twice so admit-on-2nd-hit shows), then an invalidation, re-record
 * and delta re-stage. With @p chunked_first a DedupReap start stages
 * chunk manifests before @p mode runs (BackgroundWarm's chunked
 * branch).
 */
std::string
renderRemotePreset(ColdStartMode mode, const core::ReapOptions &reap,
                   bool chunked_first)
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    cfg.reap = reap;
    Worker w(sim, cfg);
    std::ostringstream out;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        const std::string fn = "helloworld";
        orch.registerFunction(func::profileByName(fn));
        co_await orch.prepareSnapshot(fn);
        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        (void)co_await orch.invoke(fn, mode, opts); // record phase
        if (chunked_first) {
            (void)co_await orch.invoke(fn, ColdStartMode::DedupReap,
                                       opts);
            orch.evictLocalArtifacts(fn);
        }
        auto step = [&](const char *label) -> Task<void> {
            auto bd = co_await orch.invoke(fn, mode, opts);
            out << " " << label << " t=" << sim.now()
                << " record=" << bd.recordPhase
                << " loadVmm=" << bd.loadVmm
                << " fetchWs=" << bd.fetchWs
                << " installWs=" << bd.installWs
                << " total=" << bd.total
                << " residual=" << bd.residualFaults
                << " local=" << orch.artifactsLocal(fn) << "\n";
            appendTiers(out, bd.tierHits);
            appendStore(out, w.objectStore().stats());
        };
        co_await step("fresh");
        co_await step("warm1");
        co_await step("warm2");
        orch.invalidateRecord(fn);
        co_await step("rerecord");
        co_await step("restaged");
        const core::FunctionStats &st = orch.stats(fn);
        out << "  delta restages=" << st.deltaRestages
            << " uploaded=" << st.deltaChunksUploaded
            << " bytes=" << st.deltaBytesUploaded
            << " unchanged=" << st.deltaChunksUnchanged
            << " index=" << orch.stagedChunkIndex().chunkCount() << "/"
            << orch.stagedChunkIndex().storedBytes() << "\n";
    });
    return out.str();
}

std::string
renderRemotePresets()
{
    std::ostringstream out;
    const std::pair<ColdStartMode, bool> runs[] = {
        {ColdStartMode::RemoteReap, false},
        {ColdStartMode::TieredReap, false},
        {ColdStartMode::DedupReap, false},
        {ColdStartMode::BackgroundWarm, false},
        {ColdStartMode::BackgroundWarm, true},
    };
    for (const auto &[mode, chunked_first] : runs) {
        for (const auto &[label, reap] : reapMatrix()) {
            out << "mode=" << core::coldStartModeName(mode)
                << (chunked_first ? "+chunked" : "")
                << " reap=" << label << "\n";
            out << renderRemotePreset(mode, reap, chunked_first);
        }
    }
    return out.str();
}

TEST(GoldenTrace, RemotePresetsMatchCheckedInBaseline)
{
    expectGolden("remote_presets.txt", renderRemotePresets());
}

// -------------------------------------------------- fleet digests

/** Same configuration as test_parallel's shared-fleet scenarios. */
cluster::ParallelFleetResult
runSharedFleet(ColdStartMode mode, int shards, bool traffic)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.simThreads = 1;
    cfg.coldStartMode = mode;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = shards;
    cfg.chunkPlacement = net::ChunkPlacementPolicy::OverlapAware;
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.keepAlive = sec(30);
    if (traffic) {
        cluster::TrafficConfig tc;
        tc.functions = 8;
        tc.tenants = 3;
        tc.aggregateRps = 2.0;
        tc.horizon = sec(120);
        tc.diurnal.amplitude = 0.5;
        tc.diurnal.period = sec(120);
        cluster::BurstSpec crowd;
        crowd.kind = cluster::BurstKind::FlashCrowd;
        crowd.tenant = 1;
        crowd.start = sec(40);
        crowd.duration = sec(20);
        crowd.multiplier = 8.0;
        tc.bursts.push_back(crowd);
        cfg.traffic = tc;
    } else {
        cfg.workload.functions = 6;
        cfg.workload.minInterarrival = sec(2);
        cfg.workload.maxInterarrival = sec(20);
        cfg.workload.horizon = sec(120);
    }
    cluster::ParallelFleet fleet(cfg);
    return fleet.run();
}

std::string
renderFleetDigests()
{
    std::ostringstream out;
    const std::tuple<const char *, ColdStartMode, int, bool> runs[] = {
        {"SharedTiered", ColdStartMode::TieredReap, 4, false},
        {"SharedDedup", ColdStartMode::DedupReap, 4, false},
        {"TrafficDriven", ColdStartMode::TieredReap, 2, true},
    };
    for (const auto &[label, mode, shards, traffic] : runs) {
        cluster::ParallelFleetResult r =
            runSharedFleet(mode, shards, traffic);
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(r.digest()));
        out << label << " digest=" << digest
            << " invocations=" << r.invocations
            << " colds=" << r.coldStarts
            << " scaleDowns=" << r.scaleDowns
            << " events=" << r.eventsProcessed
            << " staged=" << r.stagedBytes
            << " uploaded=" << r.chunksUploaded
            << " deduped=" << r.chunksDeduped
            << " fetches=" << r.remoteArtifactFetches << "\n";
    }
    return out.str();
}

// ------------------------------------------------ cluster staging

void
appendFleetStats(std::ostringstream &out, const char *label,
                 const cluster::FleetStats &fs)
{
    out << " " << label << " colds=" << fs.coldE2eMs.count()
        << " warms=" << fs.warmE2eMs.count()
        << " resident=" << fs.residentBytes
        << " builds=" << fs.snapshotBuilds
        << " staged=" << fs.stagedBytes
        << " fetches=" << fs.remoteArtifactFetches
        << " fanIn=" << fs.fetchFanIn
        << " logical=" << fs.chunkLogicalBytes
        << " chunkStored=" << fs.chunkStoredBytes
        << " dedupSaved=" << fs.dedupSavedBytes
        << " chunks=" << fs.chunksStored
        << " deduped=" << fs.chunksDeduped
        << " chunkPeak=" << fs.fleetChunkPeakBytes
        << " restages=" << fs.restages
        << " deltaChunks=" << fs.deltaChunksUploaded
        << " deltaBytes=" << fs.deltaBytesUploaded
        << " retires=" << fs.retires
        << " gcReleased=" << fs.gcReleasedBytes
        << " pageCachePeak=" << fs.pageCachePeakBytes
        << " workerChunkPeak=" << fs.workerChunkPeakBytes
        << " peakSsd=" << fs.peakSsdBytes << "\n";
    out << "  coldMs";
    for (double v : fs.coldE2eMs.values())
        out << " " << std::bit_cast<std::uint64_t>(v);
    out << "\n";
    appendTiers(out, fs.tierHits);
    appendStore(out, fs.store);
    for (const auto &row : fs.storeShards)
        appendStore(out, row);
}

/**
 * Sequential Cluster with registry staging: prepare, one cold start
 * per function per worker-routing round, a delta restage of one
 * function, then every function retired. @p crashes installs per-chunk
 * WorkerCrash windows on staging (the registry's rollback path).
 */
std::string
renderClusterStaging(ColdStartMode mode, bool crashes)
{
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = mode;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    cfg.chunkPlacement = net::ChunkPlacementPolicy::OverlapAware;
    cfg.keepAlive = sec(60);
    cluster::Cluster c(sim, cfg);
    const char *fns[] = {"helloworld", "pyaes", "json_serdes"};
    for (const char *fn : fns)
        c.deploy(func::profileByName(fn));
    sim::FaultPlan plan(9);
    if (crashes) {
        sim::FaultSpec s;
        s.kind = sim::FaultKind::WorkerCrash;
        s.target = "staging/*";
        s.windows.push_back(sim::FaultWindow{0, sec(120), 5.0, 0.01});
        plan.add(s);
        c.installFaultPlan(&plan);
    }

    std::ostringstream out;
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        for (int round = 0; round < 2; ++round)
            for (const char *fn : fns)
                (void)co_await c.invoke(fn);
        appendFleetStats(out, "served", c.fleetStats());
        co_await c.restageFunction("helloworld");
        (void)co_await c.invoke("helloworld");
        appendFleetStats(out, "restaged", c.fleetStats());
        for (const char *fn : fns)
            co_await c.retireFunction(fn);
        appendFleetStats(out, "retired", c.fleetStats());
    });
    if (crashes)
        c.installFaultPlan(nullptr);
    out << " t=" << sim.now()
        << " crashes=" << plan.stats().workerCrashes << "\n";
    return out.str();
}

std::string
renderClusterStagings()
{
    std::ostringstream out;
    const std::pair<ColdStartMode, bool> runs[] = {
        {ColdStartMode::TieredReap, false},
        {ColdStartMode::DedupReap, false},
        {ColdStartMode::DedupReap, true},
    };
    for (const auto &[mode, crashes] : runs) {
        out << "mode=" << core::coldStartModeName(mode)
            << (crashes ? " staging-crashes" : "") << "\n";
        out << renderClusterStaging(mode, crashes);
    }
    return out.str();
}

TEST(GoldenTrace, FleetDigestsMatchCheckedInBaseline)
{
    expectGolden("fleet_digests.txt",
                 renderFleetDigests() + renderClusterStagings());
}

// -------------------------------------------------- trace digests

void
appendTrace(std::ostringstream &out, const std::string &label,
            const func::InvocationTrace &t)
{
    std::uint64_t h = kFnvOffsetBasis;
    for (const auto &r : t.runs) {
        fnvMix(h, static_cast<std::uint64_t>(r.page));
        fnvMix(h, static_cast<std::uint64_t>(r.pages));
        fnvMix(h, static_cast<std::uint64_t>(r.computeAfter));
        fnvMix(h, static_cast<std::uint64_t>(r.phase));
        fnvMix(h, r.stable ? 1 : 0);
    }
    fnvMix(h, static_cast<std::uint64_t>(t.stablePageCount));
    fnvMix(h, static_cast<std::uint64_t>(t.uniquePageCount));
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(h));
    out << " " << label << " runs=" << t.runs.size()
        << " stable=" << t.stablePageCount
        << " unique=" << t.uniquePageCount << " digest=" << digest
        << "\n";
}

/**
 * Invocations 0-15 and the boot trace of every FunctionBench profile,
 * one makeClassProfile draw per SeBS class and one TrafficEngine
 * population profile, under the default worker seed.
 */
std::string
renderTraceDigests()
{
    std::vector<func::FunctionProfile> profiles = func::functionBench();
    for (func::FunctionClass cls :
         {func::FunctionClass::MlInference, func::FunctionClass::Media,
          func::FunctionClass::Etl})
        profiles.push_back(func::makeClassProfile(cls, 0x5eb5, 1));
    cluster::TrafficConfig tc;
    tc.functions = 4;
    profiles.push_back(cluster::TrafficEngine(tc).profile(2));

    func::TraceGenerator gen(WorkerConfig{}.seed);
    std::ostringstream out;
    for (const auto &p : profiles) {
        out << "profile=" << p.name << "\n";
        for (std::int64_t id = 0; id < 16; ++id)
            appendTrace(out, "inv" + std::to_string(id),
                        gen.invocation(p, id));
        appendTrace(out, "boot", gen.boot(p));
    }
    return out.str();
}

TEST(GoldenTrace, TraceDigestsMatchCheckedInBaseline)
{
    expectGolden("trace_digests.txt", renderTraceDigests());
}

} // namespace
} // namespace vhive

/**
 * @file
 * Cache & storage economics property suite: byte-budgeted caches
 * never exceed their budgets, refcounts stay sane under eviction
 * pressure, single-flight pins survive mid-fetch, the prefetch
 * shield holds exactly until the predicted window, delta re-staging
 * moves exactly the changed-chunk set, fleet-wide retirement leaves
 * zero dangling store bytes, the accounting balances under chaos
 * faults, and — the parallel contract — budgeted runs keep digests
 * bit-identical across sim thread counts while zero-budget runs are
 * bit-identical to the historical behaviour.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cluster/cluster.hh"
#include "cluster/parallel_fleet.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "util/rng.hh"
#include "util/units.hh"
#include "vmm/snapshot.hh"

namespace vhive {
namespace {

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

storage::ChunkRef
chunk(std::uint64_t hash, Bytes stored = 40 * kKiB)
{
    return storage::ChunkRef{hash, 64 * kKiB, stored};
}

// ------------------------------------------- budgeted ChunkStore core

TEST(BudgetedChunkStore, NeverExceedsBudgetUnderRandomTraffic)
{
    // Property: with no pins outstanding, resident stored bytes obey
    // the budget after *every* operation, and refcounts never go
    // negative no matter how releases interleave with evictions.
    for (auto policy : {storage::EvictionPolicyKind::Lru,
                        storage::EvictionPolicyKind::SharingAware,
                        storage::EvictionPolicyKind::PrefetchPinned}) {
        storage::ChunkStore cs;
        const Bytes budget = 512 * kKiB;
        cs.setBudget(budget, policy);

        Rng rng(0xEC0ull +
                static_cast<std::uint64_t>(static_cast<int>(policy)));
        for (int i = 0; i < 4000; ++i) {
            auto h = static_cast<std::uint64_t>(
                1 + rng.uniformInt(0, 63));
            switch (rng.uniformInt(0, 3)) {
              case 0:
              case 1:
                cs.addRef(chunk(h, (8 + h % 48) * kKiB),
                          static_cast<Time>(i));
                break;
              case 2:
                cs.release(h);
                break;
              default:
                cs.touch(h);
                break;
            }
            ASSERT_LE(cs.storedBytes(), budget)
                << "op " << i << " policy " << static_cast<int>(policy);
            ASSERT_GE(cs.refCount(h), 0);
            ASSERT_GE(cs.storedBytes(), 0);
            ASSERT_GE(cs.chunkCount(), 0);
        }
        // Inventory identity: everything inserted either left through
        // an eviction path or is still resident.
        EXPECT_EQ(cs.stats().inserts - cs.stats().evictions -
                      cs.stats().budgetEvictions,
                  cs.chunkCount());
        EXPECT_GE(cs.stats().peakStoredBytes, cs.storedBytes());
    }
}

TEST(BudgetedChunkStore, SingleFlightPinSurvivesBudgetPressure)
{
    // A pinned chunk (single-flight admission, in-progress read) is
    // never an eviction victim, even as the oldest LRU entry under
    // heavy pressure; unpinning returns it to the victim pool.
    storage::ChunkStore cs;
    cs.setBudget(256 * kKiB, storage::EvictionPolicyKind::Lru);

    cs.addRef(chunk(0xAAAA, 64 * kKiB), 0);
    cs.pin(0xAAAA);
    // Pressure: 20 more chunks, far past the budget — everything
    // unpinned cycles out, the pinned fetch target survives.
    for (std::uint64_t h = 1; h <= 20; ++h)
        cs.addRef(chunk(h, 64 * kKiB), static_cast<Time>(h));
    EXPECT_TRUE(cs.contains(0xAAAA));
    EXPECT_LE(cs.storedBytes(), 256 * kKiB + 64 * kKiB)
        << "only the pinned bytes may overhang the budget";

    cs.unpin(0xAAAA);
    cs.release(0xAAAA); // zero refs: evictable again
    for (std::uint64_t h = 21; h <= 40; ++h)
        cs.addRef(chunk(h, 64 * kKiB), static_cast<Time>(h));
    EXPECT_FALSE(cs.contains(0xAAAA));
    EXPECT_LE(cs.storedBytes(), 256 * kKiB);
}

TEST(BudgetedChunkStore, PrefetchShieldHoldsExactlyUntilWindow)
{
    // The PrefetchPinned policy shields prefetched chunks from
    // eviction until their predicted-window end; after that they age
    // out like anything else.
    storage::ChunkStore cs;
    cs.setBudget(256 * kKiB, storage::EvictionPolicyKind::PrefetchPinned);

    cs.addRef(chunk(0xBBBB, 64 * kKiB), 0);
    cs.pinUntil(0xBBBB, sec(30));

    for (std::uint64_t h = 1; h <= 16; ++h)
        cs.addRef(chunk(h, 64 * kKiB), sec(10));
    EXPECT_TRUE(cs.contains(0xBBBB))
        << "shielded inside the predicted window";

    for (std::uint64_t h = 17; h <= 32; ++h)
        cs.addRef(chunk(h, 64 * kKiB), sec(40));
    EXPECT_FALSE(cs.contains(0xBBBB))
        << "shield expired with the window";
    EXPECT_LE(cs.storedBytes(), 256 * kKiB);
}

TEST(BudgetedChunkStore, RefcountProtectionRetainsAtZeroAndShieldsRefs)
{
    // The fleet staged-index role: referenced chunks are never budget
    // victims, zero-ref chunks are *retained* as the evictable pool
    // (a re-stage is a dedup hit, not an upload), and pressure evicts
    // only from that pool.
    storage::ChunkStore cs;
    cs.setBudget(512 * kKiB, storage::EvictionPolicyKind::Lru,
                 /*refcount_protected=*/true);

    cs.addRef(chunk(0xCCCC, 64 * kKiB), 0);
    EXPECT_FALSE(cs.release(0xCCCC)); // retained at zero refs
    EXPECT_TRUE(cs.contains(0xCCCC));
    EXPECT_FALSE(cs.addRef(chunk(0xCCCC, 64 * kKiB), 1)) // dedup hit
        << "re-staging a retained chunk must not re-upload";
    EXPECT_EQ(cs.stats().dedupHits, 1);
    cs.release(0xCCCC); // back to the zero-ref evictable pool

    // Live references survive arbitrary pressure; the budget can only
    // reclaim the zero-ref pool — which is exactly {0xCCCC}.
    for (std::uint64_t h = 1; h <= 30; ++h)
        cs.addRef(chunk(h, 64 * kKiB), static_cast<Time>(h));
    EXPECT_GT(cs.stats().budgetEvictions, 0);
    EXPECT_FALSE(cs.contains(0xCCCC))
        << "the zero-ref pool is the only legal victim set";
    for (std::uint64_t h = 1; h <= 30; ++h) {
        ASSERT_TRUE(cs.contains(h))
            << "a referenced chunk must never be a budget victim";
        ASSERT_EQ(cs.refCount(h), 1);
    }
    // Protected references may legitimately overhang the budget; the
    // store reports the overhang rather than corrupting refcounts.
    EXPECT_EQ(cs.storedBytes(), 30 * 64 * kKiB);
}

// ----------------------------------------------- worker-level budgets

TEST(WorkerEconomics, PageCacheBudgetShedsAndStaysUnder)
{
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.reap.pageCacheBudget = 2 * kMiB;
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    for (const char *fn : {"helloworld", "pyaes", "json_serdes"})
        orch.registerFunction(func::profileByName(fn));

    runScenario(sim, [&]() -> Task<void> {
        core::InvokeOptions opts;
        opts.forceCold = true;
        for (int round = 0; round < 3; ++round)
            for (const char *fn :
                 {"helloworld", "pyaes", "json_serdes"}) {
                co_await orch.prepareSnapshot(fn);
                (void)co_await orch.invoke(
                    fn, core::ColdStartMode::TieredReap, opts);
            }
    });

    const auto &tb = orch.tierBudget();
    EXPECT_LE(tb.residentBytes(), tb.budget());
    EXPECT_GT(tb.evictedBytes(), 0) << "three working sets through a "
                                       "2 MiB tier must shed pages";
    EXPECT_GT(tb.evictions(), 0);
    EXPECT_GE(tb.peakResidentBytes(), tb.residentBytes());
}

TEST(WorkerEconomics, ChunkCacheBudgetBoundsResidentBytes)
{
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    cfg.reap.chunkCacheBudget = 512 * kKiB;
    cfg.reap.evictionPolicy = storage::EvictionPolicyKind::SharingAware;
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    for (const char *fn : {"helloworld", "pyaes", "json_serdes"})
        orch.registerFunction(func::profileByName(fn));

    runScenario(sim, [&]() -> Task<void> {
        core::InvokeOptions opts;
        opts.forceCold = true;
        for (int round = 0; round < 2; ++round)
            for (const char *fn :
                 {"helloworld", "pyaes", "json_serdes"}) {
                co_await orch.prepareSnapshot(fn);
                (void)co_await orch.invoke(
                    fn, core::ColdStartMode::DedupReap, opts);
            }
    });

    const auto &cc = orch.localChunkCache();
    EXPECT_LE(cc.storedBytes(), cc.budget());
    EXPECT_GT(cc.stats().budgetEvictions, 0);
    EXPECT_GE(cc.stats().peakStoredBytes, cc.storedBytes());
    EXPECT_EQ(cc.stats().inserts - cc.stats().evictions -
                  cc.stats().budgetEvictions,
              cc.chunkCount());
}

TEST(WorkerEconomics, ZeroBudgetIsAccountingOnlyAndPolicyInert)
{
    // Dormancy contract: with budgets at 0 the economics layer only
    // keeps high-water marks — nothing is evicted, and the configured
    // eviction policy must not change a single simulated timestamp.
    core::LatencyBreakdown byPolicy[2];
    Bytes peak[2] = {0, 0};
    int i = 0;
    for (auto policy : {storage::EvictionPolicyKind::Lru,
                        storage::EvictionPolicyKind::SharingAware}) {
        Simulation sim;
        core::WorkerConfig cfg;
        cfg.reap.evictionPolicy = policy; // budgets stay 0
        core::Worker w(sim, cfg);
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("json_serdes"));
        runScenario(sim, [&]() -> Task<void> {
            co_await orch.prepareSnapshot("json_serdes");
            core::InvokeOptions opts;
            opts.forceCold = true;
            (void)co_await orch.invoke(
                "json_serdes", core::ColdStartMode::TieredReap, opts);
            byPolicy[i] = co_await orch.invoke(
                "json_serdes", core::ColdStartMode::TieredReap, opts);
        });
        EXPECT_EQ(orch.tierBudget().evictedBytes(), 0);
        EXPECT_EQ(orch.tierBudget().evictions(), 0);
        EXPECT_GT(orch.tierBudget().peakResidentBytes(), 0)
            << "peak accounting runs even unbudgeted";
        peak[i] = orch.tierBudget().peakResidentBytes();
        ++i;
    }
    EXPECT_EQ(byPolicy[0].total, byPolicy[1].total);
    EXPECT_EQ(peak[0], peak[1]);
}

// ------------------------------------------------- delta re-staging

TEST(DeltaRestage, MovesExactlyTheChangedChunkSet)
{
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    orch.registerFunction(func::profileByName("json_serdes"));

    std::shared_ptr<const vmm::SnapshotManifests> v1, v2;
    runScenario(sim, [&]() -> Task<void> {
        co_await orch.prepareSnapshot("json_serdes");
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke(
            "json_serdes", core::ColdStartMode::DedupReap, opts);
        (void)co_await orch.invoke(
            "json_serdes", core::ColdStartMode::DedupReap, opts);
        v1 = orch.manifests("json_serdes");
        orch.invalidateRecord("json_serdes");
        (void)co_await orch.invoke(
            "json_serdes", core::ColdStartMode::DedupReap, opts);
        (void)co_await orch.invoke(
            "json_serdes", core::ColdStartMode::DedupReap, opts);
        v2 = orch.manifests("json_serdes");
    });
    ASSERT_TRUE(v1 != nullptr);
    ASSERT_TRUE(v2 != nullptr);
    ASSERT_NE(v1.get(), v2.get());

    auto hashesOf = [](const vmm::SnapshotManifests &m) {
        std::set<storage::ChunkHash> s;
        for (const auto &c : m.vmmState.chunks)
            s.insert(c.hash);
        for (const auto &c : m.ws.chunks)
            s.insert(c.hash);
        return s;
    };
    std::set<storage::ChunkHash> oldSet = hashesOf(*v1);
    std::set<storage::ChunkHash> newSet = hashesOf(*v2);
    std::int64_t changed = 0;
    for (storage::ChunkHash h : newSet)
        if (oldSet.find(h) == oldSet.end())
            ++changed;

    const auto &st = orch.stats("json_serdes");
    EXPECT_EQ(st.deltaRestages, 1);
    // The heart of the delta contract: uploads == the changed set,
    // nothing more (unchanged chunks dedup against the retained
    // previous version) and nothing less.
    EXPECT_EQ(st.deltaChunksUploaded, changed);
    EXPECT_GT(st.deltaChunksUploaded, 0) << "churn model must churn";
    EXPECT_LT(st.deltaChunksUploaded,
              static_cast<std::int64_t>(newSet.size()))
        << "a delta must be strictly smaller than a full re-stage";
    EXPECT_GT(st.deltaChunksUnchanged, 0);
    EXPECT_GT(st.deltaBytesUploaded, 0);

    // The previous version's exclusive chunks were released: the
    // index now holds exactly the live manifest set.
    EXPECT_EQ(orch.stagedChunkIndex().chunkCount(),
              static_cast<std::int64_t>(newSet.size()));
}

TEST(DeltaRestage, ClusterRestageMovesOnlyChangedBytes)
{
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(60);
    cluster::Cluster c(sim, cfg);
    c.deploy(func::profileByName("helloworld"));
    c.deploy(func::profileByName("pyaes"));

    cluster::FleetStats before, after;
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        for (const char *fn : {"helloworld", "pyaes"})
            (void)co_await c.invoke(fn);
        before = c.fleetStats();
        co_await c.restageFunction("helloworld");
        after = c.fleetStats();
        // The restaged function still serves everywhere.
        (void)co_await c.invoke("helloworld");
    });

    EXPECT_EQ(before.restages, 0);
    EXPECT_EQ(after.restages, 1);
    EXPECT_GT(after.deltaChunksUploaded, 0);
    // Delta uploads moved strictly fewer chunks than the function's
    // full manifest set (which the initial staging uploaded).
    EXPECT_LT(after.deltaChunksUploaded, before.chunksStored);
    EXPECT_GT(after.deltaBytesUploaded, 0);
    EXPECT_LT(after.deltaBytesUploaded, before.chunkStoredBytes);
    EXPECT_GE(after.fleetChunkPeakBytes, after.chunkStoredBytes);
}

// --------------------------------------------------- fleet-wide GC

TEST(FleetGC, RetireReleasesEveryStagedByte)
{
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(60);
    cluster::Cluster c(sim, cfg);
    const char *fns[] = {"helloworld", "pyaes", "json_serdes"};
    for (const char *fn : fns)
        c.deploy(func::profileByName(fn));

    cluster::FleetStats mid, end;
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        for (const char *fn : fns)
            (void)co_await c.invoke(fn);
        co_await c.retireFunction("helloworld");
        mid = c.fleetStats();
        for (const char *fn : {"pyaes", "json_serdes"})
            co_await c.retireFunction(fn);
        end = c.fleetStats();
    });

    // Retiring one of three functions frees its exclusive chunks but
    // keeps every chunk another function still references.
    EXPECT_EQ(mid.retires, 1);
    EXPECT_GT(mid.gcReleasedBytes, 0);
    EXPECT_GT(mid.chunksStored, 0);

    // After the last retirement the index holds zero dangling bytes:
    // the GC contract the registry's refcounts must add up to.
    EXPECT_EQ(end.retires, 3);
    EXPECT_EQ(end.chunksStored, 0);
    EXPECT_EQ(end.chunkStoredBytes, 0);
    EXPECT_GE(end.gcReleasedBytes, mid.gcReleasedBytes);
}

// ------------------------------------------------ chaos interaction

TEST(EconomicsChaos, BudgetedEvictionBalancesThroughStoreOutage)
{
    // Store outages land mid-run while every budget is tight: the
    // accounting must still balance (no negative counts, budgets
    // honoured, inventory identity holds) and every invocation must
    // complete.
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 3;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(5);
    cfg.scalePeriod = sec(1);
    cfg.worker.reap.pageCacheBudget = 2 * kMiB;
    cfg.worker.reap.chunkCacheBudget = 512 * kKiB;
    // Evict local artifacts too: without SSD pressure the builder
    // serves its own functions locally and the outage has no store
    // traffic to land on.
    cfg.worker.reap.ssdBudget = 8 * kMiB;
    cfg.registryChunkBudget = 8 * kMiB;
    cluster::Cluster c(sim, cfg);
    sim::FaultPlan plan(11);
    const char *fns[] = {"helloworld", "pyaes", "json_serdes"};
    for (const char *fn : fns)
        c.deploy(func::profileByName(fn));

    std::int64_t served = 0;
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        // Outage windows sit relative to the post-staging clock so
        // they land mid-round, while budget pressure is refetching
        // evicted chunks.
        Time base = sim.now();
        sim::FaultSpec s;
        s.kind = sim::FaultKind::StoreOutage;
        s.target = "store/*";
        s.windows.push_back(
            sim::FaultWindow{base + sec(18), base + sec(26), 1.0, 1.0});
        s.windows.push_back(
            sim::FaultWindow{base + sec(58), base + sec(64), 1.0, 1.0});
        plan.add(s);
        c.installFaultPlan(&plan);
        // The janitor is what expires keep-alive instances; without
        // it every post-staging invocation lands warm and the outage
        // has no cold-start store traffic to stall.
        c.startAutoscaler();
        for (int round = 0; round < 8; ++round) {
            for (const char *fn : fns) {
                (void)co_await c.invoke(fn);
                ++served;
            }
            co_await sim.delay(sec(10));
        }
        c.stopAutoscaler();
        co_await c.restageFunction("pyaes");
        (void)co_await c.invoke("pyaes");
        ++served;
    });
    EXPECT_EQ(served, 25);

    auto fs = c.fleetStats();
    EXPECT_GT(fs.store.outageStalls, 0) << "outages must have landed";
    for (int w = 0; w < cfg.workers; ++w) {
        auto &orch = c.worker(w).orchestrator();
        const auto &tb = orch.tierBudget();
        EXPECT_LE(tb.residentBytes(), tb.budget()) << "worker " << w;
        const auto &cc = orch.localChunkCache();
        EXPECT_LE(cc.storedBytes(), cc.budget()) << "worker " << w;
        EXPECT_EQ(cc.stats().inserts - cc.stats().evictions -
                      cc.stats().budgetEvictions,
                  cc.chunkCount())
            << "worker " << w;
    }
    EXPECT_GE(fs.pageCachePeakBytes, 0);
    EXPECT_GT(fs.workerChunkPeakBytes, 0);
    EXPECT_EQ(fs.restages, 1);
    EXPECT_GE(fs.fleetChunkPeakBytes, fs.chunkStoredBytes);
}

// --------------------------------------------- parallel bit identity

cluster::ParallelFleetResult
runBudgetedParallel(int threads, core::ColdStartMode mode,
                    Bytes page_budget, Bytes chunk_budget,
                    Bytes ssd_budget, Bytes registry_budget,
                    storage::EvictionPolicyKind policy)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.simThreads = threads;
    cfg.coldStartMode = mode;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
    cfg.keepAlive = sec(4);
    cfg.worker.reap.pageCacheBudget = page_budget;
    cfg.worker.reap.chunkCacheBudget = chunk_budget;
    // A tight SSD budget is what makes home workers interesting: the
    // staging pass leaves artifacts local there, and without budget
    // eviction every LocalityHash-routed cold start takes the local
    // path and the remote/chunk tiers never see a byte.
    cfg.worker.reap.ssdBudget = ssd_budget;
    cfg.worker.reap.evictionPolicy = policy;
    cfg.registryChunkBudget = registry_budget;
    // Periodic (cron-class) arrivals: the hybrid policy can only
    // prefetch when the predicted window opens in the future, and
    // Poisson gaps put the 5th-percentile gap near zero — the window
    // has always already opened by the time the instance goes idle.
    cluster::TrafficConfig tc;
    tc.functions = 6;
    tc.tenants = 2;
    tc.horizon = sec(400);
    tc.periodicFraction = 1.0;
    tc.periodicMinPeriod = sec(40);
    tc.periodicMaxPeriod = sec(60);
    cfg.traffic = tc;
    cluster::ParallelFleet fleet(cfg);
    return fleet.run();
}

TEST(ParallelEconomics, BudgetedDigestBitIdenticalAcrossThreadCounts)
{
    // The acceptance contract: budgets, eviction, prefetch pinning
    // and the staged-index cap all active — and the digest (which
    // folds every economics counter in) still bit-identical for
    // 1/2/4/8 sim threads.
    cluster::ParallelFleetResult ref = runBudgetedParallel(
        1, core::ColdStartMode::DedupReap, 2 * kMiB, 512 * kKiB,
        8 * kMiB, 8 * kMiB,
        storage::EvictionPolicyKind::SharingAware);
    ASSERT_GT(ref.invocations, 0);
    EXPECT_GT(ref.ssdEvictions, 0);
    EXPECT_GT(ref.workerChunkPeakBytes, 0);
    EXPECT_GT(ref.fleetChunkPeakBytes, 0);
    std::uint64_t ref_digest = ref.digest();
    for (int threads : {2, 4, 8}) {
        cluster::ParallelFleetResult r = runBudgetedParallel(
            threads, core::ColdStartMode::DedupReap, 2 * kMiB,
            512 * kKiB, 8 * kMiB, 8 * kMiB,
            storage::EvictionPolicyKind::SharingAware);
        EXPECT_EQ(r.digest(), ref_digest) << "threads=" << threads;
        EXPECT_EQ(r.bgPrefetches, ref.bgPrefetches);
        EXPECT_EQ(r.workerChunkBudgetEvictions,
                  ref.workerChunkBudgetEvictions);
        EXPECT_EQ(r.ssdEvictions, ref.ssdEvictions);
    }

    // The page-cache budget lives on the tiered chain; a blob-staged
    // TieredReap fleet under the same SSD pressure admits remote
    // bytes through it — and must stay just as thread-agnostic.
    cluster::ParallelFleetResult tref = runBudgetedParallel(
        1, core::ColdStartMode::TieredReap, 2 * kMiB, 0, 8 * kMiB, 0,
        storage::EvictionPolicyKind::Lru);
    ASSERT_GT(tref.invocations, 0);
    EXPECT_GT(tref.pageCachePeakBytes, 0);
    EXPECT_GT(tref.pageCacheEvictedBytes, 0);
    for (int threads : {2, 4}) {
        cluster::ParallelFleetResult r = runBudgetedParallel(
            threads, core::ColdStartMode::TieredReap, 2 * kMiB, 0,
            8 * kMiB, 0, storage::EvictionPolicyKind::Lru);
        EXPECT_EQ(r.digest(), tref.digest()) << "threads=" << threads;
    }
}

TEST(ParallelEconomics, PrefetchWarmsTierCachesOnParallelKernel)
{
    // The control plane's Prefetch verb now reaches parallel-kernel
    // workers: with tight chunk caches (residency < 1 between
    // arrivals) and a predictable gap, background prefetches fire and
    // are tracked exactly-once.
    cluster::ParallelFleetResult r = runBudgetedParallel(
        2, core::ColdStartMode::DedupReap, 2 * kMiB, 512 * kKiB,
        8 * kMiB, 0, storage::EvictionPolicyKind::PrefetchPinned);
    EXPECT_GT(r.invocations, 0);
    EXPECT_GT(r.bgPrefetches, 0)
        << "hybrid-histogram Prefetch actions must reach workers";
    EXPECT_GT(r.workerChunkPeakBytes, 0)
        << "prefetched chunks must land in the worker chunk cache";
}

TEST(ParallelEconomics, ZeroBudgetRunsAreBitIdenticalToHistorical)
{
    // Dormancy at fleet scale: budgets at 0 mean the configured
    // eviction policy cannot influence a single event — digests for
    // different policies collapse onto one value (and onto the
    // default-Lru value, i.e. the pre-economics behaviour).
    cluster::ParallelFleetResult ref = runBudgetedParallel(
        2, core::ColdStartMode::DedupReap, 0, 0, 0, 0,
        storage::EvictionPolicyKind::Lru);
    ASSERT_GT(ref.invocations, 0);
    EXPECT_EQ(ref.pageCacheEvictedBytes, 0);
    EXPECT_EQ(ref.workerChunkBudgetEvictions, 0);
    EXPECT_EQ(ref.fleetChunkBudgetEvictions, 0);
    EXPECT_EQ(ref.ssdEvictions, 0);
    for (auto policy : {storage::EvictionPolicyKind::SharingAware,
                        storage::EvictionPolicyKind::PrefetchPinned}) {
        cluster::ParallelFleetResult r = runBudgetedParallel(
            2, core::ColdStartMode::DedupReap, 0, 0, 0, 0, policy);
        EXPECT_EQ(r.digest(), ref.digest())
            << "policy " << static_cast<int>(policy);
    }
}

} // namespace
} // namespace vhive

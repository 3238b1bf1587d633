/**
 * @file
 * Chaos property suite: fault plans x function classes x cold-start
 * modes, asserting the invariants the data plane must keep under
 * injected faults —
 *
 *  - pipeline byte accounting balances (every logical byte counted
 *    once; hedge duplicates accounted separately);
 *  - chunk refcounts never go negative and the staged index converges
 *    to the crash-free state, even when staging passes crash
 *    mid-flight;
 *  - single-flight staging never builds or uploads twice, faults or
 *    not;
 *  - every accepted invocation completes or is reported failed
 *    exactly once (coldStarts + warmHits + failedInvocations ==
 *    invocations);
 *  - a plan whose windows never open perturbs nothing (fault-free
 *    bit-identity; the golden suite locks the no-plan side);
 *  - same (seed, plan, workload) is bit-identical across runs and
 *    across parallel-kernel thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/azure_workload.hh"
#include "cluster/cluster.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/snapshot_registry.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "func/profile.hh"
#include "mem/page_fetch.hh"
#include "mem/page_source.hh"
#include "net/object_store.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

#include "fleet_sums.hh"

namespace vhive {
namespace {

using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;
using sim::FaultWindow;
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

FaultSpec
spec(FaultKind kind, std::string target, Time start, Time end,
     double magnitude = 1.0, double probability = 1.0)
{
    FaultSpec s;
    s.kind = kind;
    s.target = std::move(target);
    s.windows.push_back(FaultWindow{start, end, magnitude, probability});
    return s;
}

// --------------------------------------------------- store-level faults

TEST(ChaosStore, OutageDelaysButCompletes)
{
    Simulation sim;
    net::ObjectStore store(sim, net::ObjectStoreParams::remote());
    FaultPlan plan(1);
    plan.add(spec(FaultKind::StoreOutage, "store", 0, sec(2)));
    store.setFaultPlan(&plan, "store");

    Duration took = 0;
    struct T {
        static Task<void>
        run(Simulation &sim, net::ObjectStore &s, Duration &out)
        {
            Time t0 = sim.now();
            co_await s.get(kMiB);
            out = sim.now() - t0;
        }
    };
    sim.spawn(T::run(sim, store, took));
    sim.run();

    // Stalled to the end of the outage window, then served normally.
    EXPECT_GE(took, sec(2));
    EXPECT_LT(took, sec(2) + msec(100));
    EXPECT_EQ(store.stats().outageStalls, 1);
    EXPECT_EQ(store.stats().outageStallTime, sec(2));
    // Byte accounting is oblivious to the fault.
    EXPECT_EQ(store.stats().bytesServed, kMiB);
}

TEST(ChaosStore, LatencyStormScalesServiceTime)
{
    std::int64_t storm_hits = 0;
    auto timed_get = [&storm_hits](const FaultPlan *plan) {
        Simulation sim;
        net::ObjectStore store(sim, net::ObjectStoreParams::remote());
        if (plan != nullptr)
            store.setFaultPlan(plan, "store");
        Duration took = 0;
        struct T {
            static Task<void>
            run(Simulation &sim, net::ObjectStore &s, Duration &out)
            {
                Time t0 = sim.now();
                co_await s.get(4 * kMiB);
                out = sim.now() - t0;
            }
        };
        sim.spawn(T::run(sim, store, took));
        sim.run();
        storm_hits = store.stats().stormHits;
        return took;
    };

    Duration base = timed_get(nullptr);
    FaultPlan storm(7);
    storm.add(spec(FaultKind::LatencyStorm, "store", 0, sec(10), 3.0));
    Duration stormy = timed_get(&storm);
    EXPECT_EQ(stormy, 3 * base);
    EXPECT_EQ(storm_hits, 1);
}

TEST(ChaosStore, RequestErrorsPayRetriesAndBalance)
{
    Simulation sim;
    net::ObjectStore store(sim, net::ObjectStoreParams::remote());
    FaultPlan plan(11);
    plan.add(
        spec(FaultKind::RequestError, "store", 0, sec(60), 1.0, 0.5));
    store.setFaultPlan(&plan, "store");

    const Bytes len = 8 * kMiB;
    mem::RemoteObjectSource src(store);
    mem::PageFetchPipeline pipe(sim, src);
    struct T {
        static Task<void>
        run(mem::PageFetchPipeline &p, Bytes len)
        {
            co_await p.fetchWindowed(0, len, kMiB, 4);
        }
    };
    sim.spawn(T::run(pipe, len));
    sim.run();

    // Errors fired (p=0.5 over 8 windows is overwhelmingly likely),
    // every one paid a retry, and no byte was counted twice.
    EXPECT_GT(store.stats().requestRetries, 0);
    EXPECT_EQ(pipe.stats().bytesFetched, len);
    EXPECT_EQ(store.stats().bytesServed, len);
}

TEST(ChaosStore, InactivePlanDrawsNothing)
{
    // A plan whose windows never open must not perturb a run: the
    // Bernoulli streams are only consulted inside active windows.
    std::int64_t stragglers = 0;
    auto run_once = [&stragglers](const FaultPlan *plan) {
        Simulation sim;
        net::ObjectStore store(sim, net::ObjectStoreParams::remote());
        if (plan != nullptr)
            store.setFaultPlan(plan, "store");
        struct T {
            static Task<void>
            run(net::ObjectStore &s)
            {
                for (int i = 0; i < 16; ++i)
                    co_await s.get(256 * kKiB);
            }
        };
        sim.spawn(T::run(store));
        Time end = sim.run();
        stragglers = store.stats().stragglers;
        return end;
    };

    Time base = run_once(nullptr);
    FaultPlan dormant(3);
    dormant.add(spec(FaultKind::Straggler, "*", sec(9000), sec(9999),
                     10.0, 0.5));
    EXPECT_EQ(run_once(&dormant), base);
    EXPECT_EQ(stragglers, 0);
}

// ------------------------------------------------------- keyed draws

TEST(FaultPlan, RemovingOneRequestLeavesOthersUnchanged)
{
    // Each GET's fault is drawn from its own request key, so dropping
    // one GET from the workload leaves every other GET's draw — and
    // duration — exactly as it was.
    constexpr int kGets = 32;
    constexpr int kDropped = 3;
    auto durations = [](int skip) {
        Simulation sim;
        net::ObjectStore store(sim); // unbounded: no stream queueing
        FaultPlan plan(5);
        plan.add(spec(FaultKind::Straggler, "store", 0, sec(1000), 10.0,
                      0.5));
        store.setFaultPlan(&plan, "store");
        std::vector<Duration> took(kGets, 0);
        struct T {
            static Task<void>
            run(Simulation &sim, net::ObjectStore &s, int i,
                Duration &out)
            {
                co_await sim.delay(sec(i));
                Time t0 = sim.now();
                co_await s.get(kMiB,
                               {static_cast<std::uint64_t>(i), 0});
                out = sim.now() - t0;
            }
        };
        for (int i = 0; i < kGets; ++i)
            if (i != skip)
                sim.spawn(T::run(sim, store, i,
                                 took[static_cast<size_t>(i)]));
        sim.run();
        return took;
    };

    std::vector<Duration> all = durations(-1);
    std::vector<Duration> dropped = durations(kDropped);
    // Both outcomes occur, so the comparison below is not vacuous.
    EXPECT_NE(*std::min_element(all.begin(), all.end()),
              *std::max_element(all.begin(), all.end()));
    for (int i = 0; i < kGets; ++i) {
        if (i == kDropped)
            continue;
        EXPECT_EQ(dropped[static_cast<size_t>(i)],
                  all[static_cast<size_t>(i)])
            << "GET " << i;
    }
}

TEST(FaultPlan, KeyedRollRateWithinFourSigma)
{
    // Over distinct request keys, a window fires at its probability.
    constexpr int kKeys = 100000;
    for (double p : {0.01, 0.3, 0.9}) {
        FaultPlan plan(31);
        plan.add(spec(FaultKind::RequestError, "store", 0, sec(1), 1.0,
                      p));
        std::int64_t fired = 0;
        for (int k = 0; k < kKeys; ++k)
            if (plan.roll(FaultKind::RequestError, "store", 0,
                          static_cast<std::uint64_t>(k)) != nullptr)
                ++fired;
        const double n = kKeys;
        EXPECT_NEAR(static_cast<double>(fired), n * p,
                    4 * std::sqrt(n * p * (1 - p)))
            << "p=" << p;
    }
}

// ------------------------------------------------------ hedged requests

TEST(ChaosHedge, StragglerHedgeImprovesAndBalances)
{
    // Roughly 1-in-3 GETs is 20x slower; hedging after a short delay
    // races a duplicate against the straggler and proceeds on the
    // winner. Unhedged, each lane serializes its stragglers; hedged,
    // they overlap (loser legs drain concurrently at the fetch tail),
    // so with enough windows per lane the fetch gets strictly faster.
    const Bytes len = 32 * kMiB;
    auto run_once = [&](Duration hedge, mem::PageFetchStats *stats,
                        net::ObjectStoreStats *sstats) {
        Simulation sim;
        net::ObjectStore store(sim, net::ObjectStoreParams::remote());
        FaultPlan plan(21);
        plan.add(spec(FaultKind::Straggler, "store", 0, sec(600), 20.0,
                      0.34));
        store.setFaultPlan(&plan, "store");
        mem::RemoteObjectSource src(store);
        mem::PageFetchPipeline pipe(sim, src);
        pipe.setHedgeDelay(hedge);
        Duration took = 0;
        struct T {
            static Task<void>
            run(mem::PageFetchPipeline &p, Bytes len, Duration *out)
            {
                co_await p.fetchWindowed(0, len, kMiB, 4, out);
            }
        };
        sim.spawn(T::run(pipe, len, &took));
        sim.run();
        if (stats != nullptr)
            *stats = pipe.stats();
        if (sstats != nullptr)
            *sstats = store.stats();
        return took;
    };

    mem::PageFetchStats plain_stats, hedged_stats;
    net::ObjectStoreStats plain_store, hedged_store;
    Duration plain = run_once(0, &plain_stats, &plain_store);
    Duration hedged = run_once(msec(20), &hedged_stats, &hedged_store);

    // Hedges were issued, some won, and the fetch got faster.
    EXPECT_GT(hedged_stats.hedgesIssued, 0);
    EXPECT_GT(hedged_stats.hedgeWins, 0);
    EXPECT_LT(hedged, plain);

    // Byte accounting balances exactly: the pipeline counts each
    // logical byte once, and the store served those bytes plus the
    // duplicate (hedge) GET traffic — nothing more, nothing less.
    EXPECT_EQ(plain_stats.bytesFetched, len);
    EXPECT_EQ(plain_stats.hedgedBytes, 0);
    EXPECT_EQ(plain_store.bytesServed, len);
    EXPECT_EQ(hedged_stats.bytesFetched, len);
    EXPECT_EQ(hedged_store.bytesServed,
              len + hedged_stats.hedgedBytes);
}

TEST(ChaosHedge, ZeroDelayIsBitIdenticalToUnhedged)
{
    // hedgeDelay == 0 must take the historical single-GET path: same
    // finish time, same store request count, no hedge accounting.
    auto run_once = [](bool call_setter) {
        Simulation sim;
        net::ObjectStore store(sim, net::ObjectStoreParams::remote());
        mem::RemoteObjectSource src(store);
        mem::PageFetchPipeline pipe(sim, src);
        if (call_setter)
            pipe.setHedgeDelay(0);
        struct T {
            static Task<void>
            run(mem::PageFetchPipeline &p)
            {
                co_await p.fetchWindowed(0, 4 * kMiB, kMiB, 2);
            }
        };
        sim.spawn(T::run(pipe));
        Time end = sim.run();
        return std::make_pair(end, store.stats().gets);
    };
    EXPECT_EQ(run_once(false), run_once(true));
}

// ---------------------------------------------- worker crashes, retries

cluster::ClusterConfig
tieredConfig(int workers)
{
    cluster::ClusterConfig cfg;
    cfg.workers = workers;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(60);
    return cfg;
}

TEST(ChaosCrash, WorkerCrashRetriesAndCompletes)
{
    Simulation sim;
    cluster::Cluster c(sim, tieredConfig(1));
    c.deploy(func::profileByName("helloworld"));

    FaultPlan plan(5);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        // The crash window covers the first cold-start attempt only:
        // the 2 s of lost work advances time past the window, so the
        // retry (on the same, only, worker) succeeds.
        Time base = sim.now();
        plan.add(spec(FaultKind::WorkerCrash, "worker/0", base,
                      base + sec(1), 2000.0));
        c.installFaultPlan(&plan);
        Duration e2e = co_await c.invoke("helloworld");
        EXPECT_GT(e2e, sec(2)); // paid the lost work before retrying
        c.installFaultPlan(nullptr);
    });

    const auto &st = c.stats("helloworld");
    EXPECT_EQ(st.crashRetries, 1);
    EXPECT_EQ(st.coldStarts, 1);
    EXPECT_EQ(st.failedInvocations, 0);
    // The crashed attempt's instance was torn down; the retry's one
    // instance is the only survivor.
    EXPECT_EQ(c.instanceCount("helloworld"), 1);
    EXPECT_EQ(c.worker(0).orchestrator().stats("helloworld").crashes,
              1);
}

TEST(ChaosCrash, CrashingColdStartIsNotReapedAsIdle)
{
    // A cold start paying a crash's lost work holds its instance: the
    // keep-alive janitor sweeping meanwhile must not retire it as
    // idle, or the crash path's own teardown finds no instance.
    Simulation sim;
    cluster::ClusterConfig cfg = tieredConfig(1);
    cfg.keepAlive = sec(1);
    cfg.scalePeriod = sec(1);
    cluster::Cluster c(sim, cfg);
    c.deploy(func::profileByName("helloworld"));

    FaultPlan plan(12);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        (void)co_await c.invoke("helloworld");
        c.startAutoscaler();
        co_await sim.delay(sec(5)); // the janitor reaps the instance
        Time base = sim.now();
        plan.add(spec(FaultKind::WorkerCrash, "worker/0", base,
                      base + sec(1), 3000.0));
        c.installFaultPlan(&plan);
        (void)co_await c.invoke("helloworld");
        c.installFaultPlan(nullptr);
        c.stopAutoscaler();
    });

    const auto &st = c.stats("helloworld");
    EXPECT_EQ(c.worker(0).orchestrator().stats("helloworld").crashes,
              1);
    EXPECT_EQ(st.crashRetries, 1);
    EXPECT_EQ(st.failedInvocations, 0);
    EXPECT_EQ(st.coldStarts, 2);
}

TEST(ChaosCrash, ExhaustedRetriesFailExactlyOnce)
{
    Simulation sim;
    cluster::ClusterConfig cfg = tieredConfig(1);
    cfg.maxColdStartRetries = 2;
    cluster::Cluster c(sim, cfg);
    c.deploy(func::profileByName("helloworld"));

    FaultPlan plan(6);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        // A crash window covering the rest of the run at probability
        // 1: every attempt crashes, retries exhaust, the invocation is
        // reported failed exactly once — in failedInvocations, not
        // coldStarts.
        plan.add(spec(FaultKind::WorkerCrash, "worker/*", sim.now(),
                      sim.now() + sec(9000), 50.0));
        c.installFaultPlan(&plan);
        (void)co_await c.invoke("helloworld");
        c.installFaultPlan(nullptr);
    });

    const auto &st = c.stats("helloworld");
    // initial + 2 retries
    EXPECT_EQ(c.worker(0).orchestrator().stats("helloworld").crashes, 3);
    EXPECT_EQ(st.crashRetries, 2);
    EXPECT_EQ(st.failedInvocations, 1);
    EXPECT_EQ(st.coldStarts, 0);
    EXPECT_EQ(st.warmHits, 0);
    // Accepted == served-or-failed, exactly once.
    EXPECT_EQ(st.coldStarts + st.warmHits + st.failedInvocations, 1);
    // Every crashed instance was torn down.
    EXPECT_EQ(c.instanceCount("helloworld"), 0);
}

// --------------------------------------------------------- staging

TEST(ChaosStaging, OutageStallsButStagesOnce)
{
    Simulation sim;
    cluster::Cluster c(sim, tieredConfig(2));
    c.deploy(func::profileByName("pyaes"));
    FaultPlan plan(8);
    plan.add(spec(FaultKind::StagingOutage, "staging/*", 0, sec(5)));
    c.installFaultPlan(&plan);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
    });
    c.installFaultPlan(nullptr);

    EXPECT_GE(c.snapshotRegistry()->stagingStalls(), 1);
    EXPECT_EQ(c.fleetStats().snapshotBuilds, 1);
    EXPECT_EQ(c.sharedObjectStore()->stats().puts, 1);
    EXPECT_TRUE(c.snapshotRegistry()->isStaged("pyaes"));
    // The stall pushed staging past the outage window.
    EXPECT_GE(sim.now(), sec(5));
}

TEST(ChaosStaging, MidStageCrashRollsBackAndConverges)
{
    // Chunked (DedupReap) staging crashed mid-pass must roll its chunk
    // references back and retry; the converged index must match a
    // crash-free staging exactly.
    auto stage_once = [](const FaultPlan *plan) {
        auto sim = std::make_unique<Simulation>();
        cluster::ClusterConfig cfg;
        cfg.workers = 2;
        cfg.coldStartMode = core::ColdStartMode::DedupReap;
        cfg.sharedSnapshots = true;
        auto c = std::make_unique<cluster::Cluster>(*sim, cfg);
        c->deploy(func::profileByName("helloworld"));
        c->deploy(func::profileByName("pyaes"));
        if (plan != nullptr)
            c->installFaultPlan(plan);
        runScenario(*sim, [&]() -> Task<void> {
            co_await c->prepareAllSnapshots();
        });
        if (plan != nullptr)
            c->installFaultPlan(nullptr);
        return std::make_pair(std::move(sim), std::move(c));
    };

    auto [sim_ok, clean] = stage_once(nullptr);
    FaultPlan plan(9);
    // Crashes fire per staged chunk with p=0.01 inside a long window;
    // every crash pays lost work and every upload pays store time, so
    // simulated time marches toward the window end and staging always
    // converges.
    plan.add(spec(FaultKind::WorkerCrash, "staging/*", 0, sec(120),
                  5.0, 0.01));
    auto [sim_f, faulted] = stage_once(&plan);

    auto *creg = clean->snapshotRegistry();
    auto *freg = faulted->snapshotRegistry();
    EXPECT_GE(freg->stagingCrashes(), 1);
    EXPECT_EQ(creg->stagingCrashes(), 0);
    for (const char *fn : {"helloworld", "pyaes"}) {
        const cluster::StagedArtifact &a = creg->artifact(fn);
        const cluster::StagedArtifact &b = freg->artifact(fn);
        EXPECT_EQ(a.builds, b.builds) << fn;
        EXPECT_EQ(a.chunksTotal, b.chunksTotal) << fn;
        EXPECT_EQ(a.chunksUploaded, b.chunksUploaded) << fn;
        EXPECT_EQ(a.stagedBytes, b.stagedBytes) << fn;
        EXPECT_EQ(a.dedupSavedBytes, b.dedupSavedBytes) << fn;
        EXPECT_EQ(a.logicalBytes, b.logicalBytes) << fn;
    }
    // Index-wide: the aborted attempts' references were all released
    // (chunks they alone stored evicted), so the resident index is
    // identical to the crash-free one — and release() floors at zero,
    // so refcounts never went negative along the way.
    EXPECT_EQ(freg->chunkIndex().chunkCount(),
              creg->chunkIndex().chunkCount());
    EXPECT_EQ(freg->chunkIndex().storedBytes(),
              creg->chunkIndex().storedBytes());
    EXPECT_EQ(freg->chunkIndex().rawBytes(),
              creg->chunkIndex().rawBytes());
    // Rollbacks really evicted chunks in the faulted run.
    EXPECT_GT(freg->chunkIndex().stats().evictions,
              creg->chunkIndex().stats().evictions);
}

TEST(ChaosStaging, SingleFlightNeverDoubleStagesUnderStorm)
{
    // Concurrent ensureStaged callers during a latency storm: the slow
    // staging pass is in flight far longer, yet later callers must
    // wait on it, never duplicate it.
    Simulation sim;
    cluster::Cluster c(sim, tieredConfig(4));
    c.deploy(func::profileByName("helloworld"));
    c.deploy(func::profileByName("json_serdes"));
    FaultPlan plan(10);
    plan.add(
        spec(FaultKind::LatencyStorm, "store/shared", 0, sec(60), 8.0));
    c.installFaultPlan(&plan);
    runScenario(sim, [&]() -> Task<void> {
        struct Prep {
            static Task<void>
            run(cluster::Cluster &c)
            {
                co_await c.prepareAllSnapshots();
            }
        };
        sim::Latch done(sim, 0);
        for (int i = 0; i < 4; ++i)
            done.spawn(Prep::run(c));
        co_await done.wait();
    });
    c.installFaultPlan(nullptr);

    EXPECT_GT(c.sharedObjectStore()->stats().stormHits, 0);
    EXPECT_EQ(c.fleetStats().snapshotBuilds, 2);
    EXPECT_EQ(c.sharedObjectStore()->stats().puts, 2);
}

// ------------------------------------------------- whole-workload runs

/**
 * A whole-workload run: the fleet result, its per-function sums, and
 * the faults its hooks delivered — store stragglers over the shared
 * and every worker's store, cold-start crashes over every worker.
 */
struct AzureRun
{
    cluster::FleetStats fleet;
    cluster::FunctionSums rows;
    std::int64_t stragglers = 0;
    std::int64_t crashes = 0;
};

/**
 * Stage the fleet, then let @p arm add fault windows relative to the
 * post-staging time (faults land in the measured window, not on the
 * staging prologue), install the plan and drive the workload.
 */
template <typename Arm>
AzureRun
runAzure(cluster::ClusterConfig ccfg, cluster::AzureWorkloadConfig wcfg,
         FaultPlan *plan, Arm &&arm)
{
    Simulation sim;
    cluster::Cluster c(sim, ccfg);
    cluster::AzureWorkload w(sim, c, wcfg);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        if (plan != nullptr) {
            arm(*plan, sim.now());
            c.installFaultPlan(plan);
        }
        (void)co_await w.run();
        c.installFaultPlan(nullptr);
    });
    AzureRun r{c.fleetStats(),
               cluster::sumFunctionStats(c, w.functionNames())};
    r.stragglers = r.fleet.store.stragglers;
    for (int i = 0; i < c.workerCount(); ++i) {
        r.stragglers += c.worker(i).objectStore().stats().stragglers;
        for (const std::string &fn : w.functionNames())
            r.crashes += c.worker(i).orchestrator().stats(fn).crashes;
    }
    return r;
}

AzureRun
runAzure(cluster::ClusterConfig ccfg, cluster::AzureWorkloadConfig wcfg)
{
    return runAzure(ccfg, wcfg, nullptr, [](FaultPlan &, Time) {});
}

cluster::AzureWorkloadConfig
shortMix()
{
    cluster::AzureWorkloadConfig wcfg;
    wcfg.functions = 4;
    wcfg.minInterarrival = sec(2);
    wcfg.maxInterarrival = sec(20);
    wcfg.horizon = sec(120);
    return wcfg;
}

TEST(ChaosWorkload, FaultFreeBitIdenticalWithDormantPlan)
{
    // Installing a plan whose windows never open must not change a
    // single sample: hook points draw nothing outside windows.
    cluster::ClusterConfig ccfg = tieredConfig(2);
    cluster::FleetStats base = runAzure(ccfg, shortMix()).fleet;
    FaultPlan dormant(99);
    auto far_future = [](FaultPlan &p, Time base_t) {
        p.add(spec(FaultKind::StoreOutage, "*", base_t + sec(90000),
                   base_t + sec(90060)));
        p.add(spec(FaultKind::WorkerCrash, "*", base_t + sec(90000),
                   base_t + sec(90060), 10.0, 0.5));
        p.add(spec(FaultKind::Straggler, "*", base_t + sec(90000),
                   base_t + sec(90060), 10.0, 0.5));
    };
    cluster::FleetStats dormant_run =
        runAzure(ccfg, shortMix(), &dormant, far_future).fleet;

    ASSERT_GT(base.invocations, 5);
    EXPECT_EQ(base.invocations, dormant_run.invocations);
    EXPECT_EQ(base.coldStarts, dormant_run.coldStarts);
    EXPECT_EQ(base.warmHits, dormant_run.warmHits);
    ASSERT_EQ(base.e2eLatencyMs.values().size(),
              dormant_run.e2eLatencyMs.values().size());
    for (size_t i = 0; i < base.e2eLatencyMs.values().size(); ++i)
        EXPECT_EQ(base.e2eLatencyMs.values()[i],
                  dormant_run.e2eLatencyMs.values()[i])
            << "sample " << i;
}

TEST(ChaosWorkload, SameSeedSamePlanBitIdentical)
{
    cluster::ClusterConfig ccfg = tieredConfig(2);
    auto arm = [](FaultPlan &p, Time base_t) {
        p.add(spec(FaultKind::Straggler, "store/*", base_t,
                   base_t + sec(120), 10.0, 0.2));
        p.add(spec(FaultKind::WorkerCrash, "worker/*",
                   base_t + sec(20), base_t + sec(40), 100.0, 0.3));
    };

    FaultPlan a(42), b(42), d(43);
    AzureRun ra = runAzure(ccfg, shortMix(), &a, arm);
    AzureRun rb = runAzure(ccfg, shortMix(), &b, arm);
    AzureRun rd = runAzure(ccfg, shortMix(), &d, arm);

    // Same (seed, plan, workload): bit-identical histories.
    ASSERT_EQ(ra.fleet.e2eLatencyMs.values().size(),
              rb.fleet.e2eLatencyMs.values().size());
    for (size_t i = 0; i < ra.fleet.e2eLatencyMs.values().size(); ++i)
        EXPECT_EQ(ra.fleet.e2eLatencyMs.values()[i],
                  rb.fleet.e2eLatencyMs.values()[i]);
    EXPECT_GT(ra.stragglers, 0);
    EXPECT_EQ(ra.stragglers, rb.stragglers);
    EXPECT_EQ(ra.crashes, rb.crashes);

    // A different plan seed redraws every request's faults.
    bool differs = ra.fleet.e2eLatencyMs.values() !=
                       rd.fleet.e2eLatencyMs.values() ||
                   ra.stragglers != rd.stragglers;
    EXPECT_TRUE(differs);
}

TEST(ChaosWorkload, SweepInvariantsAcrossPlansClassesAndModes)
{
    // The product sweep: fault plans x function classes x cold-start
    // modes; every accepted invocation must complete or be reported
    // failed exactly once, under every combination.
    struct PlanMaker {
        const char *name;
        std::uint64_t seed;
        void (*arm)(FaultPlan &, Time);
    };
    const PlanMaker plans[] = {
        {"outage", 101,
         [](FaultPlan &p, Time t) {
             p.add(spec(FaultKind::StoreOutage, "store/*", t + sec(10),
                        t + sec(14)));
         }},
        {"storm+straggler", 102,
         [](FaultPlan &p, Time t) {
             p.add(spec(FaultKind::LatencyStorm, "store/*", t + sec(5),
                        t + sec(30), 4.0));
             p.add(spec(FaultKind::Straggler, "store/*", t,
                        t + sec(120), 12.0, 0.25));
         }},
        {"crash+errors", 103,
         [](FaultPlan &p, Time t) {
             p.add(spec(FaultKind::WorkerCrash, "worker/*", t + sec(10),
                        t + sec(60), 80.0, 0.5));
             p.add(spec(FaultKind::RequestError, "store/*", t,
                        t + sec(120), 1.0, 0.3));
         }},
    };
    const std::vector<func::FunctionClass> class_mixes[] = {
        {func::FunctionClass::MlInference, func::FunctionClass::Etl},
        {func::FunctionClass::Media, func::FunctionClass::MlInference,
         func::FunctionClass::Etl},
    };
    const core::ColdStartMode modes[] = {
        core::ColdStartMode::TieredReap,
        core::ColdStartMode::RemoteReap,
    };

    for (const PlanMaker &pm : plans) {
        for (const auto &mix : class_mixes) {
            for (core::ColdStartMode mode : modes) {
                SCOPED_TRACE(std::string(pm.name) + " classes=" +
                             std::to_string(mix.size()) + " mode=" +
                             core::coldStartModeName(mode));
                cluster::ClusterConfig ccfg = tieredConfig(2);
                ccfg.coldStartMode = mode;
                cluster::AzureWorkloadConfig wcfg = shortMix();
                wcfg.classMix = mix;
                FaultPlan plan(pm.seed);
                AzureRun r = runAzure(ccfg, wcfg, &plan, pm.arm);
                EXPECT_GT(r.fleet.invocations, 0);
                // Exactly-once completion accounting.
                EXPECT_EQ(r.rows.coldStarts + r.rows.warmHits +
                              r.rows.failedInvocations,
                          r.fleet.invocations);
                EXPECT_EQ(static_cast<std::int64_t>(
                              r.fleet.e2eLatencyMs.values().size()),
                          r.rows.invocations);
            }
        }
    }
}

TEST(ChaosWorkload, FleetStatsAccountsEveryCompletionOnce)
{
    // FleetStats is the one result of a fleet run, so the
    // completes-or-fails-exactly-once invariant is checked on it: with
    // no crash retries allowed, crashed cold starts are reported
    // failed, and every invocation still lands in exactly one of
    // cold/warm/failed with one e2e sample. Each fleet-wide term
    // equals its sum over the per-function rows.
    cluster::ClusterConfig ccfg = tieredConfig(2);
    ccfg.maxColdStartRetries = 0;
    FaultPlan plan(104);
    auto crashes = [](FaultPlan &p, Time t) {
        p.add(spec(FaultKind::WorkerCrash, "worker/*", t, t + sec(120),
                   80.0, 0.5));
    };
    AzureRun r = runAzure(ccfg, shortMix(), &plan, crashes);
    EXPECT_GT(r.crashes, 0);
    EXPECT_GT(r.fleet.failedInvocations, 0);
    EXPECT_GT(r.fleet.coldStarts + r.fleet.warmHits, 0);
    cluster::expectCompletionIdentity(r.fleet, r.rows);

    // The parallel engine has no failure path: under store faults
    // every invocation is served, cold or warm.
    cluster::ParallelFleetConfig pcfg;
    pcfg.workers = 3;
    pcfg.workload = shortMix();
    pcfg.faults = FaultPlan(104);
    pcfg.faults.add(spec(FaultKind::Straggler, "store/*", 0, sec(600),
                         8.0, 0.3));
    cluster::ParallelFleet fleet(pcfg);
    cluster::FleetStats fs = fleet.run();
    EXPECT_GT(fs.invocations, 0);
    EXPECT_EQ(fs.failedInvocations, 0);
    EXPECT_EQ(fs.coldStarts + fs.warmHits + fs.failedInvocations,
              fs.invocations);
    EXPECT_EQ(fs.e2eLatencyMs.count(), fs.invocations);
}

TEST(ChaosWorkload, OutageOverFlashCrowdWithPreWarmsExactlyOnce)
{
    // A shard outage covering a tenant flash crowd while the
    // hybrid-histogram control plane is actively pre-warming: the
    // crowd's invocations, the background pre-warm loads and the
    // outage stalls all interleave on the same shared store, and the
    // accounting must still balance — every accepted invocation lands
    // in exactly one of cold/warm/failed, and pre-warm loads are
    // counted as pre-warms, never as invocations.
    Simulation sim;
    cluster::ClusterConfig cfg = tieredConfig(4);
    cfg.sharedStoreShards = 4;
    cfg.keepAlive = sec(20);
    // Default (spreading) routing, deliberately: the crowd spills onto
    // workers that must fetch fresh chunks mid-outage. Under
    // LocalityHash every function's working set is already resident on
    // its home worker by crowd time and the dark shard is never hit.
    cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
    cluster::Cluster c(sim, cfg);

    cluster::TrafficConfig tcfg;
    tcfg.functions = 12;
    tcfg.tenants = 3;
    tcfg.aggregateRps = 0.8;
    tcfg.horizon = sec(300);
    cluster::BurstSpec crowd;
    crowd.kind = cluster::BurstKind::FlashCrowd;
    crowd.tenant = 1;
    // Early crowd, before the fleet has pulled every artifact to every
    // worker: its spread onto fresh workers forces first-touch fetches
    // inside the outage window.
    crowd.start = sec(30);
    crowd.duration = sec(40);
    crowd.multiplier = 10.0;
    tcfg.bursts.push_back(crowd);

    cluster::TrafficWorkload workload(sim, c, tcfg);
    FaultPlan plan(0xc0a7);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        // The whole shared store dark for exactly the crowd window:
        // any chunk fetch the crowd forces mid-window stalls.
        Time base = sim.now();
        for (int s = 0; s < cfg.sharedStoreShards; ++s)
            plan.add(spec(FaultKind::StoreOutage,
                          "store/shared/" + std::to_string(s),
                          base + crowd.start,
                          base + crowd.start + crowd.duration));
        c.installFaultPlan(&plan);
        co_await workload.run();
        c.installFaultPlan(nullptr);
    });

    cluster::FleetStats fs = c.fleetStats();
    cluster::FunctionSums rows = cluster::sumFunctionStats(
        c, cluster::functionNames(workload.engine()));
    ASSERT_GT(fs.invocations, 0);
    // Exactly-once completion accounting across the whole run.
    EXPECT_EQ(rows.coldStarts + rows.warmHits + rows.failedInvocations,
              fs.invocations);
    EXPECT_EQ(static_cast<std::int64_t>(
                  fs.e2eLatencyMs.values().size()),
              rows.invocations);
    // The control plane really was active across the outage, and its
    // loads are accounted separately from invocations: each pre-warm
    // produces at most one instance, which is later hit once or
    // retired once (or is still resident at shutdown).
    EXPECT_GT(fs.preWarms, 0);
    EXPECT_LE(fs.preWarmHits, fs.preWarms);
    EXPECT_LE(fs.preWarmHits + fs.wastedPreWarms, fs.preWarms);
    // A pre-warm hit is a warm hit served off a pre-warmed instance.
    EXPECT_LE(fs.preWarmHits, rows.warmHits);
    // The outage genuinely stalled requests during the crowd.
    EXPECT_GE(fs.store.outageStalls, 1);
}

// ------------------------------------------------------ parallel fleet

TEST(ChaosParallel, StoreFaultDigestStableAcrossThreads)
{
    // One plan shared by every domain, with draws keyed by request,
    // keeps the parallel kernel deterministic: the same faulted fleet
    // is bit-identical for any simThreads.
    auto run_fleet = [](int threads, bool faults) {
        cluster::ParallelFleetConfig cfg;
        cfg.workers = 3;
        cfg.simThreads = threads;
        cfg.workload.functions = 5;
        cfg.workload.minInterarrival = sec(2);
        cfg.workload.maxInterarrival = sec(20);
        cfg.workload.horizon = sec(90);
        if (faults) {
            cfg.faults = FaultPlan(77);
            cfg.faults.add(spec(FaultKind::Straggler, "store/*", 0,
                                sec(600), 8.0, 0.3));
            cfg.faults.add(spec(FaultKind::LatencyStorm, "store/*",
                                sec(20), sec(40), 3.0));
        }
        cluster::ParallelFleet fleet(cfg);
        return fleet.run().digest();
    };

    std::uint64_t d1 = run_fleet(1, true);
    EXPECT_EQ(run_fleet(2, true), d1);
    EXPECT_EQ(run_fleet(4, true), d1);
    EXPECT_EQ(run_fleet(8, true), d1);
    // And the faults actually changed the simulated history.
    EXPECT_NE(run_fleet(1, false), d1);
}

TEST(ChaosParallel, StagingCrashesRollBackAcrossThreads)
{
    // The parallel fleet stages through the same registry pass as the
    // sequential Cluster, in its store domain: the staging/* crash
    // spec of ChaosStaging.MidStageCrashRollsBackAndConverges aborts
    // and rolls back staging passes there too, deterministically.
    auto run_fleet = [](int threads, bool crashes) {
        cluster::ParallelFleetConfig cfg;
        cfg.workers = 3;
        cfg.simThreads = threads;
        cfg.coldStartMode = core::ColdStartMode::DedupReap;
        cfg.sharedSnapshots = true;
        cfg.sharedStoreShards = 2;
        cfg.workload.functions = 5;
        cfg.workload.minInterarrival = sec(2);
        cfg.workload.maxInterarrival = sec(20);
        cfg.workload.horizon = sec(90);
        if (crashes) {
            cfg.faults = FaultPlan(9);
            cfg.faults.add(spec(FaultKind::WorkerCrash, "staging/*", 0,
                                sec(120), 5.0, 0.01));
        }
        cluster::ParallelFleet fleet(cfg);
        return fleet.run();
    };

    cluster::FleetStats clean = run_fleet(1, false);
    cluster::FleetStats r = run_fleet(1, true);
    // Rolled back and retried to the crash-free staging.
    EXPECT_EQ(r.snapshotBuilds, clean.snapshotBuilds);
    EXPECT_EQ(r.stagedBytes, clean.stagedBytes);
    EXPECT_EQ(r.chunksUploaded, clean.chunksUploaded);
    EXPECT_EQ(r.dedupSavedBytes, clean.dedupSavedBytes);
    EXPECT_EQ(r.chunksStored, clean.chunksStored);
    EXPECT_EQ(r.chunkStoredBytes, clean.chunkStoredBytes);
    // Deterministic for any thread count.
    EXPECT_EQ(run_fleet(2, true).digest(), r.digest());
    EXPECT_EQ(run_fleet(4, true).digest(), r.digest());
    EXPECT_EQ(run_fleet(8, true).digest(), r.digest());
    // The crashes fired: the simulated history moved.
    EXPECT_NE(r.digest(), clean.digest());
    // Every invocation completed.
    EXPECT_GT(r.invocations, 0);
    EXPECT_EQ(r.coldStarts + r.warmHits, r.invocations);
}

TEST(ChaosParallel, RegistryModesRunWithoutSharedSnapshots)
{
    // Registry-backed modes are no longer blanket-rejected: without
    // sharedSnapshots each worker stages into its own store,
    // domain-confined, and the run completes.
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 2;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.workload.functions = 2;
    cfg.workload.minInterarrival = sec(2);
    cfg.workload.maxInterarrival = sec(10);
    cfg.workload.horizon = sec(60);
    cluster::ParallelFleet fleet(cfg);
    auto r = fleet.run();
    EXPECT_GT(r.invocations, 0);
}

TEST(ChaosParallel, RejectsUnsupportedConfigsWithCleanError)
{
    // Genuinely unsupported configs still fail as a clean fatal()
    // (exit code 1) naming the problem — raised before the kernel's
    // thread pool exists, never an assert/abort.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 2;
    cfg.sharedSnapshots = true;
    cfg.coldStartMode = core::ColdStartMode::Reap;
    EXPECT_EXIT({ cluster::ParallelFleet fleet(cfg); },
                ::testing::ExitedWithCode(1), "remote-capable");

    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedStoreShards = 0;
    EXPECT_EXIT({ cluster::ParallelFleet fleet(cfg); },
                ::testing::ExitedWithCode(1), "sharedStoreShards");

    cfg.sharedStoreShards = 1;
    cfg.workers = 0;
    EXPECT_EXIT({ cluster::ParallelFleet fleet(cfg); },
                ::testing::ExitedWithCode(1), "workers");

    cfg.workers = 2;
    cfg.simThreads = 0;
    EXPECT_EXIT({ cluster::ParallelFleet fleet(cfg); },
                ::testing::ExitedWithCode(1), "simThreads");
}

} // namespace
} // namespace vhive

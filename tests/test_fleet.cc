/**
 * @file
 * Fleet-control-plane tests: shared snapshot staging through the
 * SnapshotRegistry (build-once, stage-once, remote fan-out), routing
 * policy registry dispatch and placement behaviour, fleet-wide stats
 * aggregation, and the autoscaler scale-down / in-flight invocation
 * race.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/azure_workload.hh"
#include "cluster/cluster.hh"
#include "cluster/routing_policy.hh"
#include "cluster/snapshot_registry.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::cluster {
namespace {

using sim::Simulation;
using sim::Task;

ClusterConfig
sharedConfig(int workers)
{
    ClusterConfig cfg;
    cfg.workers = workers;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(60);
    cfg.scalePeriod = sec(1);
    return cfg;
}

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

std::int64_t
fleetSnapshotBuilds(Cluster &c)
{
    std::int64_t n = 0;
    for (int i = 0; i < c.workerCount(); ++i)
        n += c.worker(i).orchestrator().snapshotBuilds();
    return n;
}

TEST(SnapshotRegistry, BuildsOncePerFunctionRegardlessOfWorkers)
{
    for (int workers : {1, 4}) {
        Simulation sim;
        Cluster c(sim, sharedConfig(workers));
        c.deploy(func::profileByName("helloworld"));
        c.deploy(func::profileByName("pyaes"));
        runScenario(sim, [&]() -> Task<void> {
            co_await c.prepareAllSnapshots();
        });
        // One build + one put per function, no matter the fleet size.
        EXPECT_EQ(fleetSnapshotBuilds(c), 2) << workers << " workers";
        EXPECT_EQ(c.snapshotRegistry()->totalBuilds(), 2);
        EXPECT_EQ(c.sharedObjectStore()->stats().puts, 2);
        EXPECT_GT(c.snapshotRegistry()->totalStagedBytes(), 0);
        // Every worker can cold-start both functions.
        for (int w = 0; w < workers; ++w) {
            EXPECT_TRUE(c.worker(w).orchestrator().hasRecord(
                "helloworld"));
            EXPECT_TRUE(
                c.worker(w).orchestrator().hasRecord("pyaes"));
        }
    }
}

TEST(SnapshotRegistry, StagesOnceUnderConcurrentPrepare)
{
    Simulation sim;
    Cluster c(sim, sharedConfig(4));
    c.deploy(func::profileByName("helloworld"));
    c.deploy(func::profileByName("json_serdes"));
    runScenario(sim, [&]() -> Task<void> {
        struct Prep {
            static Task<void>
            run(Cluster &c, sim::Latch *done)
            {
                co_await c.prepareAllSnapshots();
                done->arrive();
            }
        };
        sim::Latch done(sim, 4);
        for (int i = 0; i < 4; ++i)
            sim.spawn(Prep::run(c, &done));
        co_await done.wait();
    });
    EXPECT_EQ(c.snapshotRegistry()->totalBuilds(), 2);
    EXPECT_EQ(fleetSnapshotBuilds(c), 2);
    EXPECT_EQ(c.sharedObjectStore()->stats().puts, 2);
}

TEST(SnapshotRegistry, NonHomeWorkerColdStartsThroughRemoteTier)
{
    Simulation sim;
    Cluster c(sim, sharedConfig(2));
    const auto &profile = func::profileByName("json_serdes");
    c.deploy(profile);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        int home = c.snapshotRegistry()->homeWorkerFor(profile.name);
        int other = 1 - home;
        auto &orch = c.worker(other).orchestrator();
        EXPECT_FALSE(orch.artifactsLocal(profile.name));

        core::InvokeOptions cold;
        cold.forceCold = true;
        auto bd = co_await orch.invoke(
            profile.name, core::ColdStartMode::TieredReap, cold);
        EXPECT_TRUE(bd.cold);
        EXPECT_FALSE(bd.recordPhase); // adopted record, no re-record
        Bytes remote_bytes = 0;
        for (const auto &t : bd.tierHits)
            if (t.tier == "remote")
                remote_bytes = t.bytes;
        EXPECT_GT(remote_bytes, 0);
        // Admission re-localized the artifacts: the next cold start
        // on this worker is served from the local tiers.
        EXPECT_TRUE(orch.artifactsLocal(profile.name));
        auto bd2 = co_await orch.invoke(
            profile.name, core::ColdStartMode::TieredReap, cold);
        for (const auto &t : bd2.tierHits) {
            if (t.tier == "remote") {
                EXPECT_EQ(t.bytes, 0);
            }
        }
    });
}

TEST(SnapshotRegistry, TracksFetchFanInThroughFrontEnd)
{
    Simulation sim;
    ClusterConfig cfg = sharedConfig(4);
    // Least-loaded spreads the concurrent colds across the fleet, so
    // several workers pull the one staged artifact.
    cfg.routingPolicy = RoutingPolicyKind::LeastLoaded;
    Cluster c(sim, cfg);
    const auto &profile = func::profileByName("helloworld");
    c.deploy(profile);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        struct Arrival {
            static Task<void>
            run(Cluster &c, std::string n, sim::Latch *done)
            {
                (void)co_await c.invoke(n);
                done->arrive();
            }
        };
        sim::Latch done(sim, 4);
        for (int i = 0; i < 4; ++i)
            sim.spawn(Arrival::run(c, profile.name, &done));
        co_await done.wait();
    });
    const StagedArtifact &art =
        c.snapshotRegistry()->artifact(profile.name);
    // The home worker kept a local copy; the other three pulled it.
    EXPECT_EQ(art.builds, 1);
    EXPECT_EQ(art.fetchFanIn(), 3);
    EXPECT_GE(art.remoteFetches, 3);
    FleetStats fs = c.fleetStats();
    EXPECT_EQ(fs.fetchFanIn, 3);
    EXPECT_EQ(fs.snapshotBuilds, 1);
}

TEST(RoutingPolicy, RegistryDispatchAndExtension)
{
    RoutingPolicyRegistry reg;
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::WarmFirst).name(),
                 "warm-first");
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::LeastLoaded).name(),
                 "least-loaded");
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::LocalityHash).name(),
                 "locality-hash");
    EXPECT_EQ(reg.kinds().size(), 3u);

    // The extension path: swap a built-in for a custom strategy.
    struct PinToZero final : RoutingPolicy {
        const char *name() const override { return "pin-to-zero"; }
        int route(const RouteContext &) override { return 0; }
    };
    reg.registerPolicy(RoutingPolicyKind::LeastLoaded,
                       std::make_unique<PinToZero>());
    EXPECT_STREQ(reg.policyFor(RoutingPolicyKind::LeastLoaded).name(),
                 "pin-to-zero");
}

TEST(RoutingPolicy, LeastLoadedSpreadsConcurrentColds)
{
    Simulation sim;
    ClusterConfig cfg;
    cfg.workers = 4;
    cfg.routingPolicy = RoutingPolicyKind::LeastLoaded;
    Cluster c(sim, cfg);
    c.deploy(func::profileByName("helloworld"));
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        struct Arrival {
            static Task<void>
            run(Cluster &c, sim::Latch *done)
            {
                (void)co_await c.invoke("helloworld");
                done->arrive();
            }
        };
        sim::Latch done(sim, 4);
        for (int i = 0; i < 4; ++i)
            sim.spawn(Arrival::run(c, &done));
        co_await done.wait();
        // One instance per worker: each arrival saw the previous
        // dispatches as in-flight load and moved on.
        for (int w = 0; w < 4; ++w) {
            EXPECT_EQ(c.worker(w).orchestrator().instanceCount(
                          "helloworld"),
                      1)
                << "worker " << w;
        }
    });
}

TEST(RoutingPolicy, LocalityHashConcentratesColdsOnHomeWorker)
{
    Simulation sim;
    ClusterConfig cfg;
    cfg.workers = 4;
    cfg.routingPolicy = RoutingPolicyKind::LocalityHash;
    Cluster c(sim, cfg);
    c.deploy(func::profileByName("pyaes"));
    int home = LocalityHashPolicy::homeWorker("pyaes", 4);
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        struct Arrival {
            static Task<void>
            run(Cluster &c, sim::Latch *done)
            {
                (void)co_await c.invoke("pyaes");
                done->arrive();
            }
        };
        sim::Latch done(sim, 3);
        for (int i = 0; i < 3; ++i)
            sim.spawn(Arrival::run(c, &done));
        co_await done.wait();
        // All three colds landed on the hash-home worker (spill
        // threshold not reached), keeping its artifact tiers hot.
        for (int w = 0; w < 4; ++w) {
            EXPECT_EQ(
                c.worker(w).orchestrator().instanceCount("pyaes"),
                w == home ? 3 : 0)
                << "worker " << w;
        }
    });
}

TEST(RoutingPolicy, WarmFirstSelectedExplicitlyMatchesDefault)
{
    // Policy-registry dispatch determinism: routing through the
    // registry-installed warm-first policy must reproduce the default
    // config's trajectory sample-for-sample.
    auto run_once = [](bool explicit_policy) {
        Simulation sim;
        ClusterConfig cfg;
        cfg.workers = 3;
        cfg.keepAlive = sec(90);
        if (explicit_policy)
            cfg.routingPolicy = RoutingPolicyKind::WarmFirst;
        Cluster c(sim, cfg);
        AzureWorkloadConfig wcfg;
        wcfg.functions = 4;
        wcfg.minInterarrival = sec(2);
        wcfg.maxInterarrival = sec(20);
        wcfg.horizon = sec(120);
        AzureWorkload w(sim, c, wcfg);
        AzureWorkloadResult result;
        runScenario(sim, [&]() -> Task<void> {
            result = co_await w.run();
        });
        return result;
    };
    auto a = run_once(false);
    auto b = run_once(true);
    ASSERT_GT(a.invocations, 5);
    ASSERT_EQ(a.e2eLatencyMs.values().size(),
              b.e2eLatencyMs.values().size());
    for (size_t i = 0; i < a.e2eLatencyMs.values().size(); ++i)
        EXPECT_EQ(a.e2eLatencyMs.values()[i],
                  b.e2eLatencyMs.values()[i]);
}

TEST(FleetStats, AggregatesColdPercentilesTiersAndContention)
{
    Simulation sim;
    ClusterConfig cfg = sharedConfig(2);
    cfg.routingPolicy = RoutingPolicyKind::LeastLoaded;
    Cluster c(sim, cfg);
    c.deploy(func::profileByName("helloworld"));
    c.deploy(func::profileByName("json_serdes"));
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        struct Arrival {
            static Task<void>
            run(Cluster &c, std::string n, sim::Latch *done)
            {
                (void)co_await c.invoke(n);
                done->arrive();
            }
        };
        sim::Latch done(sim, 6);
        // Four concurrent colds of one function spread across both
        // workers under least-loaded, so whichever worker is not the
        // function's staging home provably pulls through the remote
        // tier.
        for (int i = 0; i < 4; ++i)
            sim.spawn(Arrival::run(c, "helloworld", &done));
        for (int i = 0; i < 2; ++i)
            sim.spawn(Arrival::run(c, "json_serdes", &done));
        co_await done.wait();
    });
    FleetStats fs = c.fleetStats();
    EXPECT_EQ(fs.workers, 2);
    EXPECT_GT(fs.coldE2eMs.count(), 0);
    EXPECT_EQ(fs.coldE2eMs.count() + fs.warmE2eMs.count(), 6);
    // The scalar counters agree with the samples (fault-free run).
    EXPECT_EQ(fs.coldStarts, fs.coldE2eMs.count());
    EXPECT_EQ(fs.warmHits, fs.warmE2eMs.count());
    EXPECT_EQ(fs.invocations, fs.coldStarts + fs.warmHits);
    EXPECT_GE(fs.coldP99(), fs.coldP50());
    EXPECT_GT(fs.coldP50(), 0.0);
    // Cold starts flowed through the tiered chain; the fleet table
    // has a remote row with actual bytes.
    bool found_remote = false;
    for (const auto &t : fs.tierHits) {
        if (t.tier == "remote" && t.bytes > 0)
            found_remote = true;
    }
    EXPECT_TRUE(found_remote);
    // Per-worker rows sum to the fleet counters.
    std::int64_t cold_sum = 0;
    for (const auto &row : fs.perWorker)
        cold_sum += row.coldStarts;
    EXPECT_EQ(cold_sum, fs.coldE2eMs.count());
    // The shared store served every staged artifact and fetch.
    EXPECT_EQ(fs.store.puts, 2);
    EXPECT_GT(fs.store.gets, 0);
    EXPECT_GT(fs.residentBytes, 0);
}

TEST(Autoscaler, ScaleDownSkipsBusyInstance)
{
    // The janitor race the control plane must survive: the keep-alive
    // window expires while one instance is mid-invocation and another
    // sits idle. The idle one must be reclaimed, the busy one must
    // finish (stopping it used to trip the !busy assertion).
    Simulation sim;
    ClusterConfig cfg;
    cfg.workers = 1;
    cfg.keepAlive = sec(2);
    cfg.scalePeriod = msec(500);
    Cluster c(sim, cfg);
    c.deploy(func::profileByName("lr_training")); // ~5 s invocations
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        // Two concurrent colds leave two warm instances.
        struct Arrival {
            static Task<void>
            run(Cluster &c, sim::Latch *done)
            {
                (void)co_await c.invoke("lr_training");
                done->arrive();
            }
        };
        sim::Latch done(sim, 2);
        for (int i = 0; i < 2; ++i)
            sim.spawn(Arrival::run(c, &done));
        co_await done.wait();
        EXPECT_EQ(c.instanceCount("lr_training"), 2);

        // One long warm invocation keeps one instance busy while the
        // other idles past the keep-alive window.
        c.startAutoscaler();
        Duration e2e = co_await c.invoke("lr_training");
        EXPECT_GT(e2e, cfg.keepAlive); // the window expired mid-flight
        c.stopAutoscaler();

        // The idle instance was scaled down; the busy one survived
        // its invocation.
        EXPECT_EQ(c.instanceCount("lr_training"), 1);
        EXPECT_GE(c.stats("lr_training").scaleDowns, 1);
    });
}

TEST(Cluster, SharedSnapshotsRejectsLocalOnlyMode)
{
    // Unbuildable configs fail as a clean fatal() (exit code 1)
    // naming the problem, never an assert/abort.
    Simulation sim;
    ClusterConfig cfg;
    cfg.workers = 2;
    cfg.sharedSnapshots = true;
    cfg.coldStartMode = core::ColdStartMode::Reap;
    EXPECT_EXIT({ Cluster c(sim, cfg); }, ::testing::ExitedWithCode(1),
                "remote-capable");

    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedStoreShards = 0;
    EXPECT_EXIT({ Cluster c(sim, cfg); }, ::testing::ExitedWithCode(1),
                "sharedStoreShards");

    cfg.sharedStoreShards = 1;
    cfg.workers = 0;
    EXPECT_EXIT({ Cluster c(sim, cfg); }, ::testing::ExitedWithCode(1),
                "workers");
}

TEST(AzureWorkloadFleet, SharedStagingColdStartsStayCorrect)
{
    // End-to-end: the Azure mix over a shared-staging fleet. Exactly
    // one build per function, and the run completes with every
    // invocation accounted.
    Simulation sim;
    ClusterConfig cfg = sharedConfig(4);
    cfg.keepAlive = sec(45);
    Cluster c(sim, cfg);
    AzureWorkloadConfig wcfg;
    wcfg.functions = 6;
    wcfg.minInterarrival = sec(2);
    wcfg.maxInterarrival = sec(30);
    wcfg.horizon = sec(240);
    AzureWorkload w(sim, c, wcfg);
    AzureWorkloadResult result;
    runScenario(sim, [&]() -> Task<void> {
        result = co_await w.run();
    });
    EXPECT_GT(result.invocations, 10);
    EXPECT_EQ(result.coldStarts + result.warmHits,
              result.invocations);
    EXPECT_EQ(c.snapshotRegistry()->totalBuilds(), 6);
    EXPECT_EQ(fleetSnapshotBuilds(c), 6);
    FleetStats fs = c.fleetStats();
    EXPECT_EQ(fs.coldE2eMs.count(), result.coldStarts);
    EXPECT_GT(fs.coldP99(), 0.0);
}

} // namespace
} // namespace vhive::cluster

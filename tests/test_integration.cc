/**
 * @file
 * Cross-module integration tests: end-to-end determinism, concurrent
 * cold-start behaviour (the Fig. 9 mechanism), disk-type effects, and
 * interactions between the cluster layer and REAP state.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/disk.hh"
#include "util/stats.hh"
#include "util/units.hh"

namespace vhive::core {
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

Duration
fullColdStartFlow(std::uint64_t seed)
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.seed = seed;
    Worker w(sim, cfg);
    Duration total = 0;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("chameleon"));
        co_await orch.prepareSnapshot("chameleon");
        orch.flushHostCaches();
        (void)co_await orch.invoke("chameleon", ColdStartMode::Reap);
        orch.flushHostCaches();
        auto bd =
            co_await orch.invoke("chameleon", ColdStartMode::Reap);
        total = bd.total;
    });
    return total;
}

TEST(Integration, BitReproducibleAcrossRuns)
{
    Duration a = fullColdStartFlow(0x1111);
    Duration b = fullColdStartFlow(0x1111);
    EXPECT_EQ(a, b);
}

TEST(Integration, SeedChangesPerturbButStaySane)
{
    Duration a = fullColdStartFlow(0x1111);
    Duration b = fullColdStartFlow(0x2222);
    // Different page layouts shift latency slightly, not wildly.
    double ratio = static_cast<double>(a) / static_cast<double>(b);
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.4);
}

Task<void>
concurrentCold(Orchestrator &orch, std::string name, Samples *lat,
               ColdStartMode mode, Simulation &sim)
{
    InvokeOptions opts;
    opts.forceCold = true;
    Time t0 = sim.now();
    (void)co_await orch.invoke(name, mode, opts);
    lat->add(toMs(sim.now() - t0));
}

double
avgConcurrentColdMs(int n, ColdStartMode mode)
{
    Simulation sim;
    Worker w(sim);
    auto &orch = w.orchestrator();
    const auto &base = func::profileByName("helloworld");
    std::vector<std::string> names;
    for (int i = 0; i < n; ++i) {
        auto p = base;
        std::string name = "f";
        name += std::to_string(i);
        p.name = std::move(name);
        names.push_back(p.name);
        orch.registerFunction(p);
    }
    Samples lat;
    runScenario(sim, [&]() -> Task<void> {
        for (const auto &nm : names) {
            co_await orch.prepareSnapshot(nm);
            if (mode == ColdStartMode::Reap) {
                orch.flushHostCaches();
                (void)co_await orch.invoke(nm, ColdStartMode::Reap);
            }
        }
        orch.flushHostCaches();
        sim::Latch done(sim, 0);
        for (const auto &nm : names)
            done.spawn(concurrentCold(orch, nm, &lat, mode, sim));
        co_await done.wait();
    });
    return lat.mean();
}

TEST(Integration, BaselineConcurrencyDegradesNearLinearly)
{
    // Fig. 9: the serialized fault path makes the baseline's
    // per-instance latency grow steeply with concurrency.
    double c1 = avgConcurrentColdMs(1, ColdStartMode::VanillaSnapshot);
    double c8 = avgConcurrentColdMs(8, ColdStartMode::VanillaSnapshot);
    double c32 =
        avgConcurrentColdMs(32, ColdStartMode::VanillaSnapshot);
    EXPECT_GT(c8, 2.0 * c1);
    EXPECT_GT(c32, 7.0 * c1); // steep, near-linear degradation
}

TEST(Integration, ReapConcurrencyScalesFarBetter)
{
    double b8 = avgConcurrentColdMs(8, ColdStartMode::VanillaSnapshot);
    double r8 = avgConcurrentColdMs(8, ColdStartMode::Reap);
    EXPECT_LT(r8, b8 / 4.0);
    // REAP at 8 concurrent stays within a small multiple of solo.
    double r1 = avgConcurrentColdMs(1, ColdStartMode::Reap);
    EXPECT_LT(r8, 5.0 * r1);
}

TEST(Integration, HddAmplifiesReapAdvantage)
{
    auto run = [](storage::DiskParams disk) {
        Simulation sim;
        WorkerConfig cfg;
        cfg.disk = disk;
        Worker w(sim, cfg);
        double speedup = 0;
        runScenario(sim, [&]() -> Task<void> {
            auto &orch = w.orchestrator();
            orch.registerFunction(func::profileByName("helloworld"));
            co_await orch.prepareSnapshot("helloworld");
            orch.flushHostCaches();
            (void)co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap);
            InvokeOptions opts;
            opts.flushPageCache = true;
            opts.forceCold = true;
            auto v = co_await orch.invoke(
                "helloworld", ColdStartMode::VanillaSnapshot, opts);
            auto r = co_await orch.invoke("helloworld",
                                          ColdStartMode::Reap, opts);
            speedup = static_cast<double>(v.total) /
                      static_cast<double>(r.total);
        });
        return speedup;
    };
    double ssd = run(storage::DiskParams::ssd());
    double hdd = run(storage::DiskParams::hdd());
    // Sec. 6.3: REAP helps even more on HDD (5.4x vs 3.7x average).
    EXPECT_GT(hdd, ssd);
}

TEST(Integration, ClusterColdStartsUseRecordedWorkingSet)
{
    // After the cluster's first (record) cold start, later cold
    // starts on the same worker prefetch instead of recording.
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 1;
    cfg.keepAlive = sec(5);
    cfg.scalePeriod = sec(1);
    cluster::Cluster c(sim, cfg);
    c.deploy(func::profileByName("helloworld"));
    Duration first = 0, second = 0;
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        c.startAutoscaler();
        first = co_await c.invoke("helloworld"); // record phase
        co_await sim.delay(sec(10));             // scaled to zero
        EXPECT_EQ(c.instanceCount("helloworld"), 0);
        second = co_await c.invoke("helloworld"); // REAP prefetch
        c.stopAutoscaler();
    });
    EXPECT_LT(second, first / 3);
}

TEST(Integration, SnapshotFilesLandOnDisk)
{
    Simulation sim;
    Worker w(sim);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("pyaes");
        orch.flushHostCaches();
        (void)co_await orch.invoke("pyaes", ColdStartMode::Reap);
    });
    auto &fs = w.fileStore();
    EXPECT_NE(fs.lookup("pyaes/vmm_state"), storage::kInvalidFile);
    EXPECT_NE(fs.lookup("pyaes/guest_mem"), storage::kInvalidFile);
    EXPECT_NE(fs.lookup("pyaes/ws"), storage::kInvalidFile);
    EXPECT_NE(fs.lookup("pyaes/trace"), storage::kInvalidFile);
    // WS file sized to the recorded working set.
    auto ws = fs.lookup("pyaes/ws");
    EXPECT_EQ(fs.fileSize(ws),
              w.orchestrator().record("pyaes").wsFileBytes());
    // Guest memory file holds the full VM image.
    auto gm = fs.lookup("pyaes/guest_mem");
    EXPECT_EQ(fs.fileSize(gm),
              func::profileByName("pyaes").vmMemory);
}

TEST(Integration, ReapNeverFetchesMoreThanRecorded)
{
    Simulation sim;
    Worker w(sim);
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("json_serdes"));
        co_await orch.prepareSnapshot("json_serdes");
        orch.flushHostCaches();
        (void)co_await orch.invoke("json_serdes", ColdStartMode::Reap);
        std::int64_t recorded =
            orch.record("json_serdes").pageCount();

        w.disk().resetStats();
        orch.flushHostCaches();
        InvokeOptions opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        auto bd = co_await orch.invoke("json_serdes",
                                       ColdStartMode::Reap, opts);
        EXPECT_EQ(bd.prefetchedPages, recorded);
        // Disk traffic: WS file + VMM state + residual faults; far
        // below re-reading the full 256 MB image.
        EXPECT_LT(w.disk().stats().bytesRead, 64 * kMiB);
    });
}

} // namespace
} // namespace vhive::core

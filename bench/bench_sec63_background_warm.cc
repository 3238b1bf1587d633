/**
 * @file
 * Sec. 6.3 (background-traffic study): repeat the REAP cold-start
 * measurement while 20 memory-resident (warm) functions serve steady
 * invocation traffic on the same worker. The paper observes results
 * within 5% of the idle-host numbers.
 */

#include <cstdio>
#include <string>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "func/profile.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

double
measureReapCold(bool with_background)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 1;
    cluster::Cluster c(sim, cfg);

    const auto &hw = func::profileByName("helloworld");
    c.deploy(hw);

    // 20 background functions (pyaes-class) kept warm by traffic.
    std::vector<std::string> bg_names;
    for (int i = 0; i < 20; ++i) {
        func::FunctionProfile p = func::profileByName("pyaes");
        p.name = "bg_" + std::to_string(i);
        bg_names.push_back(p.name);
        c.deploy(p);
    }

    Samples cold_ms;
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        co_await c.prepareAllSnapshots();
        auto &orch = c.worker(0).orchestrator();

        std::vector<std::unique_ptr<cluster::ClosedLoopTraffic>> bg;
        if (with_background) {
            for (const auto &n : bg_names) {
                // Warm each background function once, then drive it.
                (void)co_await c.invoke(n);
                bg.push_back(
                    std::make_unique<cluster::ClosedLoopTraffic>(
                        sim, c, n, 1, msec(150)));
                bg.back()->start();
            }
        }

        // Record phase for helloworld.
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld",
                                   core::ColdStartMode::Reap);

        for (int i = 0; i < 10; ++i) {
            core::InvokeOptions opts;
            opts.flushPageCache = true;
            opts.forceCold = true;
            auto bd = co_await orch.invoke(
                "helloworld", core::ColdStartMode::Reap, opts);
            cold_ms.add(toMs(bd.total));
            co_await sim.delay(msec(200));
        }
        for (auto &b : bg)
            co_await b->stopAndDrain();
    });
    return cold_ms.mean();
}

} // namespace

int
main()
{
    bench::banner("Sec. 6.3: REAP cold starts with 20 warm background "
                  "functions");

    double idle = measureReapCold(false);
    double busy = measureReapCold(true);
    double delta = (busy / idle - 1.0) * 100.0;

    Table t({"scenario", "helloworld_reap_cold_ms"});
    t.row().cell("idle host").cell(idle, 1);
    t.row().cell("20 warm functions serving traffic").cell(busy, 1);
    t.print();

    std::printf("\nDelta: %+.1f%% (paper: within 5%%)\n", delta);
    return 0;
}

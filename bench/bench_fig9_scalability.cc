/**
 * @file
 * Figure 9: average instance cold-start delay while sweeping the
 * number of concurrently loading instances (independent
 * helloworld-class functions). The paper's baseline grows
 * near-linearly (extracting only 32->81 MB/s from the SSD), while
 * REAP stays low until it becomes disk-bandwidth-bound at a
 * concurrency of ~16 (118-493 MB/s).
 *
 * Beyond the paper's 1..64 range, the sweep continues to fleet scale
 * (128..1024 concurrent loads) to probe where the disk model saturates
 * under multi-tenant pressure; wall_s and Mev/s columns report the
 * host wall-clock cost and DES-kernel event throughput of each cell,
 * which is what the kernel hot-path work optimizes. Set
 * `VHIVE_FIG9_MAX=<n>` to cap the sweep (CI smoke uses a low cap) and
 * `VHIVE_BENCH_JSON=<path>` to export the rows.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "sim/sync.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

struct Result {
    double avg_ms = 0;
    double ssd_mb_s = 0; // aggregate: N x WS / wall time (Sec. 6.5)
    double wall_s = 0;   // host wall-clock for the whole cell
    double events_per_sec = 0;
};

sim::Task<void>
oneInstance(core::Orchestrator &orch, std::string name,
            core::ColdStartMode mode, Samples *lat)
{
    core::InvokeOptions opts;
    opts.forceCold = true;
    auto bd = co_await orch.invoke(name, mode, opts);
    lat->add(toMs(bd.total));
}

Result
measure(int concurrency, core::ColdStartMode mode)
{
    auto host0 = std::chrono::steady_clock::now();
    sim::Simulation sim;
    core::Worker w(sim);
    auto &orch = w.orchestrator();

    // N independent helloworld-class functions (Sec. 6.5).
    const auto &base = func::profileByName("helloworld");
    std::vector<std::string> names;
    for (int i = 0; i < concurrency; ++i) {
        func::FunctionProfile p = base;
        p.name = "hw_" + std::to_string(i);
        names.push_back(p.name);
        orch.registerFunction(p);
    }

    Samples lat;
    Duration wall = 0;
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        for (const auto &n : names) {
            co_await orch.prepareSnapshot(n);
            if (mode == core::ColdStartMode::Reap) {
                orch.flushHostCaches();
                (void)co_await orch.invoke(n, core::ColdStartMode::Reap);
            }
        }
        orch.flushHostCaches();

        Time t0 = sim.now();
        sim::Latch done(sim, 0);
        for (const auto &n : names)
            done.spawn(oneInstance(orch, n, mode, &lat));
        co_await done.wait();
        wall = sim.now() - t0;
    });
    auto host1 = std::chrono::steady_clock::now();

    Result r;
    r.avg_ms = lat.mean();
    double ws_mb = toMiB(base.workingSet) * 1.048576; // MiB -> MB
    r.ssd_mb_s =
        ws_mb * concurrency / (toMs(wall) / 1000.0);
    r.wall_s = std::chrono::duration<double>(host1 - host0).count();
    r.events_per_sec =
        static_cast<double>(sim.eventsProcessed()) / r.wall_s;
    return r;
}

} // namespace

int
main()
{
    bench::banner("Figure 9: cold-start delay vs number of "
                  "concurrently loading instances");

    int maxConcurrency = 1024;
    if (const char *cap = std::getenv("VHIVE_FIG9_MAX"))
        maxConcurrency = std::atoi(cap);

    bench::JsonWriter json("fig9_scalability");
    Table t({"concurrency", "baseline_ms", "reap_ms",
             "baseline_MB/s", "reap_MB/s", "reap_speedup", "wall_s",
             "Mev/s"});
    for (int n = 1; n <= maxConcurrency; n *= 2) {
        Result base = measure(n, core::ColdStartMode::VanillaSnapshot);
        Result reap = measure(n, core::ColdStartMode::Reap);
        double wall = base.wall_s + reap.wall_s;
        double eps = (base.events_per_sec * base.wall_s +
                      reap.events_per_sec * reap.wall_s) /
                     wall;
        t.row()
            .cell(static_cast<std::int64_t>(n))
            .cell(base.avg_ms, 0)
            .cell(reap.avg_ms, 0)
            .cell(base.ssd_mb_s, 0)
            .cell(reap.ssd_mb_s, 0)
            .cell(base.avg_ms / reap.avg_ms, 1)
            .cell(wall, 2)
            .cell(eps / 1e6, 2);

        std::string cell = "concurrency=" + std::to_string(n);
        json.row(cell + "/baseline", "avg_ms", base.avg_ms,
                 base.events_per_sec);
        json.row(cell + "/reap", "avg_ms", reap.avg_ms,
                 reap.events_per_sec);
        json.row(cell, "wall_s", wall, eps);
    }
    t.print();

    std::printf("\nPaper findings: the baseline's per-instance delay "
                "grows near-linearly (its\naggregate SSD throughput "
                "is stuck at 32-81 MB/s); REAP stays low (70->185 ms\n"
                "from 1->8 instances) and becomes disk-bound from "
                "concurrency ~16 (118-493 MB/s).\nPast the paper's "
                "range the sweep continues to 1024 concurrent loads "
                "to probe\nfleet-scale behavior of the disk model and "
                "the DES kernel itself.\n");
    return 0;
}

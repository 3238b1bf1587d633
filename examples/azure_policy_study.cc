/**
 * @file
 * Keep-alive policy study under a production-like (Azure-style)
 * sporadic workload — the economic argument of the paper's
 * introduction, made quantitative: keeping instances warm wastes
 * memory (Sec. 2.1, 4.3); deallocating aggressively causes cold
 * starts. REAP shifts the trade-off by making cold starts cheap, so
 * a provider can run short keep-alive windows without destroying
 * tail latency.
 *
 * Usage: azure_policy_study [minutes]     (default 30 simulated)
 */

#include <cstdio>
#include <cstdlib>

#include "cluster/azure_workload.hh"
#include "cluster/cluster.hh"
#include "core/options.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

/** One sweep point: the fleet's result and the workload's memory
 * integral. */
struct PolicyRun
{
    cluster::FleetStats fleet;
    cluster::AzureWorkloadResult memory;
};

PolicyRun
runPolicy(core::ColdStartMode mode, Duration keep_alive,
          Duration horizon)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.keepAlive = keep_alive;
    cfg.coldStartMode = mode;
    cfg.scalePeriod = sec(5);
    cluster::Cluster c(sim, cfg);

    cluster::AzureWorkloadConfig wl;
    wl.horizon = horizon;
    cluster::AzureWorkload workload(sim, c, wl);

    PolicyRun result;
    struct T {
        static sim::Task<void>
        run(cluster::AzureWorkload &w,
            cluster::AzureWorkloadResult &out)
        {
            out = co_await w.run();
        }
    };
    sim.spawn(T::run(workload, result.memory));
    sim.run();
    result.fleet = c.fleetStats();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    double minutes = argc > 1 ? std::atof(argv[1]) : 30.0;
    if (minutes < 1)
        minutes = 1;
    Duration horizon = sec(minutes * 60.0);

    std::printf("Azure-style sporadic mix (12 functions, 2 workers), "
                "%.0f simulated minutes.\nkeep-alive x cold-start "
                "mode sweep:\n\n",
                minutes);

    Table t({"keep_alive", "mode", "invocations", "cold%", "p50_ms",
             "p99_ms", "avg_resident_MB", "memory_GB_min"});
    for (Duration ka : {sec(60), sec(300), sec(600)}) {
        for (auto mode : {core::ColdStartMode::VanillaSnapshot,
                          core::ColdStartMode::Reap}) {
            auto r = runPolicy(mode, ka, horizon);
            t.row()
                .cell(std::to_string(ka / kSecond) + " s")
                .cell(mode == core::ColdStartMode::Reap ? "REAP"
                                                        : "vanilla")
                .cell(r.fleet.invocations)
                .cell(r.fleet.coldFraction() * 100.0, 1)
                .cell(r.fleet.e2eLatencyMs.percentile(50), 1)
                .cell(r.fleet.e2eLatencyMs.percentile(99), 0)
                .cell(r.memory.avgResidentMb, 0)
                .cell(r.memory.memoryGbMin, 2);
        }
    }
    t.print();

    std::printf("\nReading: shrinking keep-alive cuts resident "
                "memory but raises the cold rate;\nREAP keeps the "
                "p99 of those colds several times lower than vanilla "
                "snapshots,\nmaking aggressive scale-to-zero "
                "affordable.\n");
    return 0;
}

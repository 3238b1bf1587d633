/**
 * @file
 * Cluster scenario: a small vHive cluster serving sporadic Poisson
 * traffic to several functions with Knative-style keep-alive and
 * scale-to-zero — the production situation that makes cold starts
 * matter (Sec. 2.1). Runs the same workload twice, with vanilla
 * snapshots and with REAP, and compares end-to-end tail latency and
 * cold-start counts.
 *
 * Usage: cluster_autoscaling [minutes]    (default 60 simulated)
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

struct FnLoad {
    const char *name;
    double mean_interarrival_s;
};

/** Sporadic traffic mix (most functions < 1 invocation/min). */
const FnLoad kMix[] = {
    {"helloworld", 70},
    {"pyaes", 95},
    {"lr_serving", 140},
    {"cnn_serving", 200},
};

struct RunStats {
    double p50 = 0, p99 = 0;
    std::int64_t cold = 0, warm = 0, scale_downs = 0;
};

sim::Task<void>
driveLoad(sim::Simulation &sim, cluster::Cluster &c, Duration horizon,
          std::uint64_t seed)
{
    co_await c.prepareAllSnapshots();
    c.startAutoscaler();

    std::vector<std::unique_ptr<cluster::PoissonTraffic>> gens;
    std::int64_t total = 0;
    sim::Latch done(sim, 0);
    for (const auto &f : kMix) {
        auto count = static_cast<std::int64_t>(
            toMs(horizon) / 1000.0 / f.mean_interarrival_s);
        total += count;
        gens.push_back(std::make_unique<cluster::PoissonTraffic>(
            sim, c, f.name, sec(f.mean_interarrival_s), count, seed));
        done.spawn(gens.back()->run());
    }
    co_await done.wait();
    c.stopAutoscaler();
    (void)total;
}

RunStats
runOnce(core::ColdStartMode mode, Duration horizon)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.keepAlive = sec(60); // aggressive deallocation
    cfg.coldStartMode = mode;
    cluster::Cluster c(sim, cfg);
    for (const auto &f : kMix)
        c.deploy(func::profileByName(f.name));

    sim.spawn(driveLoad(sim, c, horizon, 1234));
    sim.run();

    RunStats out;
    Samples all;
    for (const auto &f : kMix) {
        const auto &st = c.stats(f.name);
        for (double v : st.e2eLatencyMs.values())
            all.add(v);
        out.cold += st.coldStarts;
        out.warm += st.warmHits;
        out.scale_downs += st.scaleDowns;
    }
    out.p50 = all.percentile(50);
    out.p99 = all.percentile(99);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    double minutes = argc > 1 ? std::atof(argv[1]) : 60.0;
    if (minutes < 1)
        minutes = 1;
    Duration horizon = sec(minutes * 60.0);

    std::printf("2-worker cluster, %0.f min of sporadic Poisson "
                "traffic, 60 s keep-alive:\n\n",
                minutes);
    RunStats vanilla =
        runOnce(core::ColdStartMode::VanillaSnapshot, horizon);
    RunStats reap = runOnce(core::ColdStartMode::Reap, horizon);

    Table t({"cold-start mode", "p50_ms", "p99_ms", "cold_starts",
             "warm_hits", "scale_downs"});
    t.row()
        .cell("vanilla snapshots")
        .cell(vanilla.p50, 1)
        .cell(vanilla.p99, 0)
        .cell(vanilla.cold)
        .cell(vanilla.warm)
        .cell(vanilla.scale_downs);
    t.row()
        .cell("REAP")
        .cell(reap.p50, 1)
        .cell(reap.p99, 0)
        .cell(reap.cold)
        .cell(reap.warm)
        .cell(reap.scale_downs);
    t.print();

    std::printf("\nWith sporadic arrivals and scale-to-zero, most "
                "invocations are cold; REAP\ncuts the tail latency "
                "those cold starts impose (p99 %.0f -> %.0f ms).\n",
                vanilla.p99, reap.p99);
    return 0;
}

/**
 * @file
 * Graceful-degradation sweep: the 4-worker TieredReap shared-snapshot
 * fleet under the Azure production mix (ML-inference / media / ETL
 * class functions), driven fault-free and under two injected fault
 * intensities:
 *
 *   none    — no fault plan installed (the baseline; bit-identical to
 *             builds without the fault layer),
 *   mild    — occasional store stragglers plus a latency storm window
 *             (tail-latency pressure, nothing fails),
 *   severe  — stragglers, per-request error retries, a hard ten-second
 *             store outage, and worker crashes mid-cold-start (the
 *             cluster retries; some invocations fail after retries).
 *
 * Reported per cell: invocations, cold fraction, cold/e2e p50/p99,
 * failed invocations, and the fault-event counters, so the table reads
 * as "what does each fault class cost end to end". The headline
 * degradation numbers quoted in the README/ROADMAP come from this
 * table. `VHIVE_BENCH_JSON=BENCH_chaos.json` exports rows; the CI
 * perf-smoke job gates the severe cell's events/sec against
 * ci/perf_floor.json (the chaos path must not wreck kernel
 * throughput).
 *
 * A fourth cell crosses the sharded data plane with the traffic
 * model: a 4-shard shared store under open-loop flash-crowd traffic
 * loses one shard for the whole crowd window. The other three shards
 * keep serving, so the cell quantifies partial-outage degradation
 * (stalled requests and the cold-latency tail) rather than the
 * all-stores blackout the severe cell measures.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "cluster/azure_workload.hh"
#include "cluster/cluster.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "sim/fault.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

enum class Intensity { None, Mild, Severe };

const char *
intensityName(Intensity lvl)
{
    switch (lvl) {
      case Intensity::None:
        return "none";
      case Intensity::Mild:
        return "mild";
      case Intensity::Severe:
        return "severe";
    }
    return "?";
}

/**
 * Build the fault plan for one intensity. Windows are relative to
 * @p base (simulated time after staging finished) so they cover the
 * measured workload window, not the staging prologue.
 */
void
arm(sim::FaultPlan &plan, Intensity lvl, Time base, Duration horizon)
{
    auto add = [&](sim::FaultKind kind, const char *target, Time start,
                   Time end, double magnitude, double probability) {
        sim::FaultSpec s;
        s.kind = kind;
        s.target = target;
        s.windows.push_back(
            sim::FaultWindow{start, end, magnitude, probability});
        plan.add(s);
    };
    Time end = base + horizon;
    switch (lvl) {
      case Intensity::None:
        break;
      case Intensity::Mild:
        add(sim::FaultKind::Straggler, "store/shared", base, end, 8.0,
            0.05);
        // A storm covering the middle third of the window.
        add(sim::FaultKind::LatencyStorm, "store/shared",
            base + horizon / 3, base + 2 * (horizon / 3), 2.0, 1.0);
        break;
      case Intensity::Severe:
        add(sim::FaultKind::Straggler, "store/shared", base, end, 20.0,
            0.15);
        add(sim::FaultKind::RequestError, "store/shared", base, end,
            1.0, 0.2);
        // A hard ten-second outage one minute in, hitting every store
        // (the shared artifact store and the workers' input stores).
        add(sim::FaultKind::StoreOutage, "store/*", base + sec(60),
            base + sec(70), 1.0, 1.0);
        // Worker crashes mid-cold-start, ~200 ms of work lost each.
        add(sim::FaultKind::WorkerCrash, "*", base, end, 200.0, 0.05);
        break;
    }
}

/**
 * Faults the fleet's hooks delivered: store stragglers, error retries
 * and outage stalls over the shared and every worker's store, crashes
 * of cold starts and of staging passes.
 */
struct Delivered
{
    std::int64_t stragglers = 0;
    std::int64_t retries = 0;
    std::int64_t crashes = 0;
    std::int64_t stalls = 0;
};

Delivered
delivered(cluster::Cluster &c, const std::vector<std::string> &fns)
{
    net::ObjectStoreStats s = c.sharedObjectStore()->stats();
    Delivered d;
    d.crashes = c.snapshotRegistry()->stagingCrashes();
    for (int w = 0; w < c.workerCount(); ++w) {
        net::mergeStoreStats(s, c.worker(w).objectStore().stats());
        for (const std::string &fn : fns)
            d.crashes += c.worker(w).orchestrator().stats(fn).crashes;
    }
    d.stragglers = s.stragglers;
    d.retries = s.requestRetries;
    d.stalls = s.outageStalls;
    return d;
}

struct CellResult
{
    cluster::FleetStats fleet;
    Delivered faults;
    double wall_s = 0;
    double events_per_sec = 0;
};

CellResult
runCell(Intensity lvl)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(60);
    cluster::Cluster c(sim, cfg);

    cluster::AzureWorkloadConfig wcfg;
    wcfg.functions = 12;
    wcfg.minInterarrival = sec(5);
    wcfg.maxInterarrival = sec(240);
    wcfg.horizon = sec(900);
    wcfg.classMix = {func::FunctionClass::MlInference,
                     func::FunctionClass::Media,
                     func::FunctionClass::Etl};

    cluster::AzureWorkload workload(sim, c, wcfg);
    sim::FaultPlan plan(0xc4a05);
    CellResult r;
    auto host0 = std::chrono::steady_clock::now();
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        co_await c.prepareAllSnapshots();
        if (lvl != Intensity::None) {
            arm(plan, lvl, sim.now(), wcfg.horizon);
            c.installFaultPlan(&plan);
        }
        (void)co_await workload.run();
        c.installFaultPlan(nullptr);
    });
    auto host1 = std::chrono::steady_clock::now();
    r.fleet = c.fleetStats();
    r.faults = delivered(c, workload.functionNames());
    r.wall_s = std::chrono::duration<double>(host1 - host0).count();
    r.events_per_sec =
        r.wall_s > 0
            ? static_cast<double>(sim.eventsProcessed()) / r.wall_s
            : 0;
    return r;
}

/**
 * One store shard (of four) goes dark for the full duration of a
 * tenant flash crowd. The crowd's cold starts that hash to the dead
 * shard stall until it returns; the rest of the fleet keeps serving.
 *
 * With @p control set, the hybrid-histogram control plane is active
 * across the outage: the crowd's repeats trigger pre-warms whose
 * background loads pull through the partially dead store too, so the
 * cell checks that predictive warming degrades (stalls, slower warms)
 * without double- or zero-counting anything — every accepted
 * invocation still lands in exactly one of cold/warm/failed.
 */
CellResult
runShardOutageCell(cluster::ControlPolicyKind control)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 4;
    // Short keep-alive + a thin base rate: functions go cold between
    // invocations, so the crowd's onset is a cold-start burst that
    // actually pulls through the (partially dead) shared store.
    cfg.keepAlive = sec(20);
    cfg.controlPolicy = control;
    if (control != cluster::ControlPolicyKind::None)
        cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cluster::Cluster c(sim, cfg);

    cluster::TrafficConfig tcfg;
    tcfg.functions = 16;
    tcfg.tenants = 4;
    tcfg.aggregateRps = 1.0;
    tcfg.horizon = sec(600);
    cluster::BurstSpec crowd;
    crowd.kind = cluster::BurstKind::FlashCrowd;
    crowd.tenant = 1;
    crowd.start = sec(120);
    crowd.duration = sec(40);
    crowd.multiplier = 10.0;
    tcfg.bursts.push_back(crowd);

    cluster::TrafficWorkload workload(sim, c, tcfg);
    sim::FaultPlan plan(0xc4a06);
    CellResult r;
    auto host0 = std::chrono::steady_clock::now();
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        co_await c.prepareAllSnapshots();
        // The outage covers exactly the crowd window, on one shard.
        Time base = sim.now();
        sim::FaultSpec s;
        s.kind = sim::FaultKind::StoreOutage;
        s.target = "store/shared/1";
        s.windows.push_back(sim::FaultWindow{
            base + crowd.start, base + crowd.start + crowd.duration,
            1.0, 1.0});
        plan.add(s);
        c.installFaultPlan(&plan);
        co_await workload.run();
        c.installFaultPlan(nullptr);
    });
    auto host1 = std::chrono::steady_clock::now();
    r.fleet = c.fleetStats();
    std::vector<std::string> fns;
    for (int i = 0; i < workload.engine().functionCount(); ++i)
        fns.push_back(workload.engine().profile(i).name);
    r.faults = delivered(c, fns);
    r.wall_s = std::chrono::duration<double>(host1 - host0).count();
    r.events_per_sec =
        r.wall_s > 0
            ? static_cast<double>(sim.eventsProcessed()) / r.wall_s
            : 0;
    return r;
}

} // namespace

int
main()
{
    bench::banner("Chaos degradation: 4-worker tiered-shared fleet, "
                  "class mix (ml/media/etl), fault intensity sweep");

    bench::JsonWriter json("chaos_degradation");
    Table t({"faults", "inv", "failed", "cold%", "cold_p50", "cold_p99",
             "e2e_p99", "stragglers", "retries", "crashes", "stalls",
             "wall_s", "Mev/s"});

    double base_cold_p99 = 0;
    for (Intensity lvl :
         {Intensity::None, Intensity::Mild, Intensity::Severe}) {
        CellResult r = runCell(lvl);
        const auto &fs = r.fleet;
        if (lvl == Intensity::None)
            base_cold_p99 = fs.coldP99();
        std::string cell =
            std::string("workers=4/faults=") + intensityName(lvl);
        t.row()
            .cell(intensityName(lvl))
            .cell(fs.invocations)
            .cell(fs.failedInvocations)
            .cell(100.0 * fs.coldFraction(), 1)
            .cell(fs.coldP50(), 1)
            .cell(fs.coldP99(), 1)
            .cell(fs.e2eLatencyMs.percentile(99), 1)
            .cell(r.faults.stragglers)
            .cell(r.faults.retries)
            .cell(r.faults.crashes)
            .cell(r.faults.stalls)
            .cell(r.wall_s, 2)
            .cell(r.events_per_sec / 1e6, 1);
        json.row(cell, "cold_p50_ms", fs.coldP50());
        json.row(cell, "cold_p99_ms", fs.coldP99());
        json.row(cell, "e2e_p99_ms", fs.e2eLatencyMs.percentile(99));
        json.row(cell, "invocations",
                 static_cast<double>(fs.invocations));
        json.row(cell, "failed_invocations",
                 static_cast<double>(fs.failedInvocations));
        json.row(cell, "worker_crashes",
                 static_cast<double>(r.faults.crashes));
        json.row(cell, "wall_s", r.wall_s, r.events_per_sec);
    }

    for (cluster::ControlPolicyKind control :
         {cluster::ControlPolicyKind::None,
          cluster::ControlPolicyKind::HybridHistogram}) {
        bool predictive =
            control != cluster::ControlPolicyKind::None;
        CellResult r = runShardOutageCell(control);
        const auto &fs = r.fleet;
        double cold_pct =
            fs.invocations > 0
                ? 100.0 * static_cast<double>(fs.coldStarts) /
                      static_cast<double>(fs.invocations)
                : 0;
        std::string cell =
            predictive
                ? std::string(
                      "workers=4/faults=shard-outage-crowd/"
                      "control=hybrid")
                : std::string("workers=4/faults=shard-outage-crowd");
        t.row()
            .cell(predictive ? "outage+prewarm" : "shard-outage")
            .cell(fs.invocations)
            .cell(fs.failedInvocations)
            .cell(cold_pct, 1)
            .cell(fs.coldP50(), 1)
            .cell(fs.coldP99(), 1)
            .cell(fs.e2eLatencyMs.percentile(99), 1)
            .cell(r.faults.stragglers)
            .cell(r.faults.retries)
            .cell(r.faults.crashes)
            .cell(r.faults.stalls)
            .cell(r.wall_s, 2)
            .cell(r.events_per_sec / 1e6, 1);
        json.row(cell, "cold_p99_ms", fs.coldP99());
        json.row(cell, "e2e_p99_ms", fs.e2eLatencyMs.percentile(99));
        json.row(cell, "invocations",
                 static_cast<double>(fs.invocations));
        json.row(cell, "outage_stalls",
                 static_cast<double>(r.faults.stalls));
        json.row(cell, "store_stream_waits",
                 static_cast<double>(fs.store.streamWaits));
        if (predictive) {
            json.row(cell, "pre_warms",
                     static_cast<double>(fs.preWarms));
            json.row(cell, "pre_warm_hits",
                     static_cast<double>(fs.preWarmHits));
            json.row(cell, "wasted_pre_warms",
                     static_cast<double>(fs.wastedPreWarms));
        }
        json.row(cell, "wall_s", r.wall_s, r.events_per_sec);
    }
    t.print();

    if (base_cold_p99 > 0)
        std::printf("\n(cold p99 degradation is quoted relative to "
                    "the fault-free %.1f ms baseline; the "
                    "shard-outage row drives a 4-shard shared store "
                    "with open-loop flash-crowd traffic and kills "
                    "one shard for the crowd window, so its stalls "
                    "measure partial-outage degradation)\n",
                    base_cold_p99);
    return 0;
}

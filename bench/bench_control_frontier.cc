/**
 * @file
 * Predictive-control frontier: the cold-p99 vs wasted-resident-memory
 * trade-off of the ControlPolicy layer (ROADMAP item 2), on a
 * 4-worker TieredReap shared-snapshot fleet under bursty open-loop
 * traffic (Zipf population, a tenant flash crowd and a deploy storm).
 *
 * One row per policy:
 *
 *   none             — plain keep-alive janitor, no control actions:
 *                      the cold-start baseline.
 *   naive-keep-alive — always-warm: every function ever seen is
 *                      pre-warmed whenever it has no idle instance.
 *                      Best cold p99, and the waste ceiling.
 *   hybrid-histogram — per-function inter-arrival histograms predict
 *                      the next-invocation window ("Serverless in the
 *                      Wild"); pre-warms land just ahead of it.
 *   oracle           — clairvoyant replay of the exact arrival
 *                      schedule: the accuracy upper bound.
 *
 * The headline claim this table backs: hybrid-histogram cuts cold p99
 * well below the no-policy baseline while holding wasted resident
 * byte-seconds far under the naive always-warm ceiling.
 * `VHIVE_BENCH_JSON=BENCH_control.json` exports rows; CI gates the
 * hybrid cell's events/sec against ci/perf_floor.json.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "cluster/control_policy.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

cluster::TrafficConfig
trafficConfig()
{
    cluster::TrafficConfig tcfg;
    // A wide Zipf population over a long horizon: the head stays hot
    // under plain keep-alive, the mid sporadically goes cold (the
    // pre-warmable repeats), and the tail gaps stretch past the
    // policies' fallback so naive-keep-alive pays for warmth nobody
    // uses — that tail is where the frontier separates on waste.
    tcfg.functions = 36;
    tcfg.tenants = 4;
    tcfg.aggregateRps = 6.0;
    tcfg.horizon = sec(960);

    // A cron-like quarter with periods past the janitor's keep-alive:
    // plain keep-alive pays a cold start every timer tick, naive
    // keep-alive holds them warm across the whole gap, and the
    // histogram pre-warms a few seconds ahead of each tick — this
    // class is where the predictive frontier separates.
    tcfg.periodicFraction = 0.25;
    tcfg.periodicMinPeriod = sec(60);
    tcfg.periodicMaxPeriod = sec(480);

    // A tenant flash crowd early and a deploy storm late: the first
    // rewards warm pools (predictable repeats), the second punishes
    // them (one-off re-invocations of a random quarter).
    cluster::BurstSpec crowd;
    crowd.kind = cluster::BurstKind::FlashCrowd;
    crowd.tenant = 2;
    crowd.start = sec(120);
    crowd.duration = sec(40);
    crowd.multiplier = 8.0;
    tcfg.bursts.push_back(crowd);

    cluster::BurstSpec storm;
    storm.kind = cluster::BurstKind::DeployStorm;
    storm.start = sec(320);
    storm.duration = sec(30);
    storm.multiplier = 6.0;
    storm.fraction = 0.25;
    tcfg.bursts.push_back(storm);
    return tcfg;
}

struct CellResult
{
    cluster::FleetStats fleet;
    double wall_s = 0;
    double events_per_sec = 0;
};

CellResult
runCell(cluster::ControlPolicyKind policy)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    // Short keep-alive: the sporadic tail genuinely goes cold between
    // invocations, so the policies have cold starts to prevent.
    cfg.keepAlive = sec(20);
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.controlPolicy = policy;
    cluster::Cluster c(sim, cfg);

    cluster::TrafficConfig tcfg = trafficConfig();
    cluster::TrafficWorkload workload(sim, c, tcfg);

    CellResult r;
    auto host0 = std::chrono::steady_clock::now();
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        co_await c.prepareAllSnapshots();
        if (policy == cluster::ControlPolicyKind::Oracle) {
            // Feed the clairvoyant schedule by replaying the exact
            // arrival streams TrafficWorkload will draw (same Rng
            // streams, same thinning), relative to now: staging
            // is done, so run()'s own prepareAllSnapshots is a no-op
            // and the arrival loops start at this simulated instant.
            auto &oracle = static_cast<cluster::OraclePolicy &>(
                c.controlPolicies().policyFor(
                    cluster::ControlPolicyKind::Oracle));
            oracle.setEpoch(sim.now());
            const cluster::TrafficEngine &eng = workload.engine();
            for (int fn = 0; fn < eng.functionCount(); ++fn) {
                Rng local = eng.arrivalStream(fn);
                std::vector<Duration> offsets;
                Duration t = 0;
                while (true) {
                    t = eng.nextArrival(fn, t, local);
                    if (t >= tcfg.horizon)
                        break;
                    offsets.push_back(t);
                }
                oracle.setSchedule(eng.profile(fn).name,
                                   std::move(offsets));
            }
        }
        co_await workload.run();
    });
    auto host1 = std::chrono::steady_clock::now();
    r.fleet = c.fleetStats();
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
    bench::banner("Control frontier: 4-worker tiered-shared fleet, "
                  "bursty Zipf traffic, control-policy sweep");

    bench::JsonWriter json("control_frontier");
    Table t({"policy", "inv", "cold", "cold%", "cold_p99", "e2e_p99",
             "prewarm", "hit", "acc%", "wasted", "waste_MBs",
             "idle_inst_s", "wall_s", "Mev/s"});

    for (cluster::ControlPolicyKind policy :
         {cluster::ControlPolicyKind::None,
          cluster::ControlPolicyKind::NaiveKeepAlive,
          cluster::ControlPolicyKind::HybridHistogram,
          cluster::ControlPolicyKind::Oracle}) {
        CellResult r = runCell(policy);
        const auto &fs = r.fleet;
        const char *pname = cluster::controlPolicyName(policy);
        double cold_pct =
            fs.invocations > 0
                ? 100.0 * static_cast<double>(fs.coldStarts) /
                      static_cast<double>(fs.invocations)
                : 0;
        double accuracy =
            fs.preWarms > 0 ? 100.0 *
                                  static_cast<double>(fs.preWarmHits) /
                                  static_cast<double>(fs.preWarms)
                            : 0;
        double waste_mb_s = fs.wastedResidentByteSec / 1e6;
        std::string cell = std::string("workers=4/policy=") + pname;
        double e2e_p99 = fs.e2eLatencyMs.percentile(99);
        t.row()
            .cell(pname)
            .cell(fs.invocations)
            .cell(fs.coldStarts)
            .cell(cold_pct, 1)
            .cell(fs.coldP99(), 1)
            .cell(e2e_p99, 1)
            .cell(fs.preWarms)
            .cell(fs.preWarmHits)
            .cell(accuracy, 1)
            .cell(fs.wastedPreWarms)
            .cell(waste_mb_s, 1)
            .cell(fs.idleWarmInstanceSec, 1)
            .cell(r.wall_s, 2)
            .cell(r.events_per_sec / 1e6, 1);
        json.row(cell, "cold_p50_ms", fs.coldP50());
        json.row(cell, "cold_p99_ms", fs.coldP99());
        json.row(cell, "e2e_p99_ms", e2e_p99);
        json.row(cell, "cold_pct", cold_pct);
        json.row(cell, "invocations",
                 static_cast<double>(fs.invocations));
        json.row(cell, "pre_warms",
                 static_cast<double>(fs.preWarms));
        json.row(cell, "pre_warm_hits",
                 static_cast<double>(fs.preWarmHits));
        json.row(cell, "wasted_pre_warms",
                 static_cast<double>(fs.wastedPreWarms));
        json.row(cell, "bg_prefetches",
                 static_cast<double>(fs.bgPrefetches));
        json.row(cell, "prewarm_accuracy_pct", accuracy);
        json.row(cell, "wasted_mb_s", waste_mb_s);
        json.row(cell, "idle_warm_instance_s", fs.idleWarmInstanceSec);
        json.row(cell, "wall_s", r.wall_s, r.events_per_sec);
    }
    t.print();

    std::printf("\n(the frontier reads down the table: none is the "
                "cold-start baseline, naive-keep-alive the waste "
                "ceiling, hybrid-histogram the paper policy cutting "
                "cold p99 at a fraction of that waste, oracle the "
                "clairvoyant accuracy bound; waste_MBs integrates "
                "idle-warm resident memory over the run)\n");
    return 0;
}

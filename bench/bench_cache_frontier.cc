/**
 * @file
 * Cache & storage economics frontier: cold-start p99 vs worker-cache
 * peak resident bytes under byte-budgeted tiers (ROADMAP item 3), on
 * a 4-worker DedupReap shared-snapshot fleet.
 *
 * Every cell runs under the same fixed SSD artifact budget, so every
 * cell pays the chunked remote path and the page/chunk caches are
 * what differ. The sweep is cache-budget x eviction-policy x
 * workload:
 *
 *   budget — unbounded (accounting only), then 50% and 25% of the
 *            unbounded run's measured peak resident bytes, split
 *            per worker.
 *   policy — lru, sharing-aware (dedup-weighted victims), and
 *            prefetch-pinned (predicted-window bytes shielded).
 *   workload — periodic (the cron class: narrow gap histograms, the
 *              hybrid policy prefetches into predicted windows) and
 *              zipf (Poisson arrivals + a tenant flash crowd: the
 *              hot head protects itself, the tail churns).
 *
 * The headline claim this table backs: at half the unbounded peak
 * resident bytes, the sharing-aware budgeted config holds cold p99
 * within a few percent of unbounded — cache budgets buy back memory
 * without giving up the snapshot-locality wins.
 * `VHIVE_BENCH_JSON=BENCH_cache.json` exports rows; CI gates the
 * periodic/sharing-aware/50% cell's events/sec against
 * ci/perf_floor.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "cluster/control_policy.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "storage/eviction.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

/** Local artifact budget every cell shares: tight enough that home
 * workers cannot hold the whole population locally, so cold starts
 * exercise the chunked remote path the caches exist to absorb. */
constexpr Bytes kSsdBudgetPerWorker = 16 * kMiB;

cluster::TrafficConfig
trafficConfig(bool periodic)
{
    cluster::TrafficConfig tcfg;
    tcfg.functions = 18;
    tcfg.tenants = 3;
    tcfg.horizon = sec(600);
    if (periodic) {
        // Cron class: fixed per-function timers with small jitter.
        // Narrow gap histograms are what let the hybrid policy emit
        // Prefetch actions — the prefetch-pinned policy's shield has
        // real windows to honour.
        tcfg.periodicFraction = 1.0;
        tcfg.periodicMinPeriod = sec(40);
        tcfg.periodicMaxPeriod = sec(120);
    } else {
        // Zipf head + Poisson tail with a mid-run flash crowd: cache
        // pressure comes in a burst instead of a steady drumbeat.
        tcfg.aggregateRps = 4.0;
        cluster::BurstSpec crowd;
        crowd.kind = cluster::BurstKind::FlashCrowd;
        crowd.tenant = 1;
        crowd.start = sec(200);
        crowd.duration = sec(40);
        crowd.multiplier = 6.0;
        tcfg.bursts.push_back(crowd);
    }
    return tcfg;
}

struct CellResult
{
    cluster::FleetStats fleet;
    double wall_s = 0;
    double events_per_sec = 0;
};

CellResult
runCell(bool periodic, storage::EvictionPolicyKind policy,
        Bytes page_budget, Bytes chunk_budget)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    cfg.keepAlive = sec(20);
    cfg.scalePeriod = sec(1);
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
    cfg.worker.reap.ssdBudget = kSsdBudgetPerWorker;
    cfg.worker.reap.pageCacheBudget = page_budget;
    cfg.worker.reap.chunkCacheBudget = chunk_budget;
    cfg.worker.reap.evictionPolicy = policy;
    cluster::Cluster c(sim, cfg);

    cluster::TrafficWorkload workload(sim, c,
                                      trafficConfig(periodic));

    CellResult r;
    auto host0 = std::chrono::steady_clock::now();
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        co_await c.prepareAllSnapshots();
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

Bytes
cachePeak(const cluster::FleetStats &fs)
{
    return fs.pageCachePeakBytes + fs.workerChunkPeakBytes;
}

} // namespace

int
main()
{
    bench::banner("Cache economics frontier: 4-worker dedup-shared "
                  "fleet, cache-budget x eviction-policy x workload");

    bench::JsonWriter json("cache_frontier");
    Table t({"traffic", "policy", "budget", "inv", "cold", "cold_p99",
             "vs_unb", "peak_MB", "res%", "pg_evMB", "ck_ev",
             "prefetch", "wall_s", "Mev/s"});

    for (bool periodic : {true, false}) {
        const char *tname = periodic ? "periodic" : "zipf";

        // Unbounded baseline: budgets at zero are accounting-only, so
        // this run both anchors the p99 comparison and measures the
        // peak resident bytes the budgeted cells are scaled from.
        CellResult unb = runCell(
            periodic, storage::EvictionPolicyKind::Lru, 0, 0);
        Bytes unb_peak = cachePeak(unb.fleet);
        double unb_p99 = unb.fleet.coldP99();
        t.row()
            .cell(tname)
            .cell("lru")
            .cell("unbounded")
            .cell(unb.fleet.invocations)
            .cell(unb.fleet.coldStarts)
            .cell(unb_p99, 1)
            .cell(1.0, 2)
            .cell(static_cast<double>(unb_peak) / 1e6, 1)
            .cell(100.0, 0)
            .cell(0.0, 1)
            .cell(std::int64_t{0})
            .cell(unb.fleet.bgPrefetches)
            .cell(unb.wall_s, 2)
            .cell(unb.events_per_sec / 1e6, 1);
        std::string ucell = std::string("workers=4/traffic=") + tname +
                            "/policy=lru/budget=unbounded";
        json.row(ucell, "cold_p99_ms", unb_p99);
        json.row(ucell, "peak_resident_mb",
                 static_cast<double>(unb_peak) / 1e6);
        json.row(ucell, "wall_s", unb.wall_s, unb.events_per_sec);

        for (double frac : {0.5, 0.25}) {
            for (storage::EvictionPolicyKind policy :
                 {storage::EvictionPolicyKind::Lru,
                  storage::EvictionPolicyKind::SharingAware,
                  storage::EvictionPolicyKind::PrefetchPinned}) {
                // Scale the measured unbounded peaks, split across
                // the fleet; floor well above one chunk so single-
                // flight pins always fit.
                Bytes page_b = std::max<Bytes>(
                    static_cast<Bytes>(
                        frac *
                        static_cast<double>(
                            unb.fleet.pageCachePeakBytes)) /
                        4,
                    256 * kKiB);
                Bytes chunk_b = std::max<Bytes>(
                    static_cast<Bytes>(
                        frac *
                        static_cast<double>(
                            unb.fleet.workerChunkPeakBytes)) /
                        4,
                    256 * kKiB);
                CellResult r = runCell(periodic, policy, page_b,
                                       chunk_b);
                const auto &fs = r.fleet;
                const char *pname = storage::evictionPolicyName(policy);
                double p99 = fs.coldP99();
                double vs_unb = unb_p99 > 0 ? p99 / unb_p99 : 0;
                Bytes peak = cachePeak(fs);
                double res_pct =
                    unb_peak > 0 ? 100.0 *
                                       static_cast<double>(peak) /
                                       static_cast<double>(unb_peak)
                                 : 0;
                char budget[16];
                std::snprintf(budget, sizeof budget, "%.0f%%",
                              frac * 100);
                t.row()
                    .cell(tname)
                    .cell(pname)
                    .cell(budget)
                    .cell(fs.invocations)
                    .cell(fs.coldStarts)
                    .cell(p99, 1)
                    .cell(vs_unb, 2)
                    .cell(static_cast<double>(peak) / 1e6, 1)
                    .cell(res_pct, 0)
                    .cell(static_cast<double>(
                              fs.pageCacheEvictedBytes) /
                              1e6,
                          1)
                    .cell(fs.workerChunkBudgetEvictions)
                    .cell(fs.bgPrefetches)
                    .cell(r.wall_s, 2)
                    .cell(r.events_per_sec / 1e6, 1);
                std::string cell = std::string("workers=4/traffic=") +
                                   tname + "/policy=" + pname +
                                   "/budget=" + budget;
                json.row(cell, "cold_p99_ms", p99);
                json.row(cell, "cold_p99_vs_unbounded", vs_unb);
                json.row(cell, "peak_resident_mb",
                         static_cast<double>(peak) / 1e6);
                json.row(cell, "peak_resident_pct", res_pct);
                json.row(cell, "page_cache_evicted_mb",
                         static_cast<double>(
                             fs.pageCacheEvictedBytes) /
                             1e6);
                json.row(cell, "chunk_budget_evictions",
                         static_cast<double>(
                             fs.workerChunkBudgetEvictions));
                json.row(cell, "bg_prefetches",
                         static_cast<double>(fs.bgPrefetches));
                json.row(cell, "wall_s", r.wall_s, r.events_per_sec);
            }
        }
    }
    t.print();

    std::printf("\n(the frontier reads across budget columns: "
                "unbounded anchors p99 and peak bytes, the 50%% and "
                "25%% rows show what eviction gives back — vs_unb is "
                "cold p99 relative to unbounded, res%% the peak "
                "resident bytes kept; every cell pays the same "
                "16 MiB/worker SSD artifact budget so the remote "
                "path is live throughout)\n");
    return 0;
}

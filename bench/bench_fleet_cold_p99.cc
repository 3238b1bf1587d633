/**
 * @file
 * Fleet-wide cold-start percentiles under the Azure production mix
 * (the scale-out question the per-worker experiments leave open, and
 * the fleet-level reporting SeBS argues for): sweep
 *
 *   workers x routing policy x cold-start staging mode
 *
 * where the staging modes are
 *
 *   reap           — REAP from per-worker local SSD artifacts (every
 *                    worker builds and records its own copy),
 *   tiered         — TieredReap with per-worker staging (every worker
 *                    still records + puts its own artifact copy),
 *   tiered-shared  — TieredReap through the SnapshotRegistry: one
 *                    build + one staged artifact per function in a
 *                    fleet-shared remote store, every other worker
 *                    cold-starts through its remote tier.
 *
 * Reported per cell: fleet cold p50/p99, cold fraction, snapshot
 * builds, staged bytes, remote fetch fan-in, and object-store stream
 * contention. `VHIVE_BENCH_JSON=BENCH_fleet.json` exports rows; the
 * CI perf-smoke job gates the events/sec of a fixed cell against
 * ci/perf_floor.json. VHIVE_FLEET_MAX_WORKERS caps the sweep (CI).
 *
 * Part 2 sweeps the multi-core kernel (cluster::ParallelFleet over
 * sim::ParallelKernel): workers x sim threads, REAP mode. Simulated
 * results must be bit-identical across thread counts — the digest
 * column compares every cell against its threads=1 reference, and any
 * MISMATCH makes the bench exit 1 once its tables are printed — while
 * wall_s and Mev/s show the parallel speedup. VHIVE_FLEET_MAX_THREADS
 * caps the thread axis (CI runners have few cores).
 *
 * Part 3 sweeps the parallel shared data plane at fleet scale:
 * workers {64, 256} x store shards {1, 4, 16} x smooth-vs-bursty
 * TrafficEngine arrivals (diurnal modulation + a tenant flash crowd +
 * a deploy storm), DedupReap staging through the store domain with
 * overlap-aware chunk placement. The contention columns (st_waits,
 * peakQ) show the single store choking during the crowd and the
 * sharded store absorbing it. 64-worker cells always run (CI floors
 * gate them); 256 needs VHIVE_FLEET_MAX_WORKERS >= 256.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/common.hh"
#include "cluster/azure_workload.hh"
#include "cluster/cluster.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/routing_policy.hh"
#include "core/options.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

struct ModeCell {
    const char *label;
    core::ColdStartMode mode;
    bool shared;
};

struct CellResult {
    cluster::FleetStats fleet;
    double wall_s = 0;
    double events_per_sec = 0;
};

CellResult
runCell(int workers, cluster::RoutingPolicyKind policy,
        const ModeCell &mode)
{
    sim::Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = workers;
    cfg.coldStartMode = mode.mode;
    cfg.sharedSnapshots = mode.shared;
    cfg.routingPolicy = policy;
    // A short keep-alive keeps cold starts frequent enough that the
    // p99 is a cold-start number, not a warm-path one.
    cfg.keepAlive = sec(60);
    cluster::Cluster c(sim, cfg);

    cluster::AzureWorkloadConfig wcfg;
    wcfg.functions = 12;
    wcfg.minInterarrival = sec(5);
    wcfg.maxInterarrival = sec(240);
    wcfg.horizon = sec(900);

    cluster::AzureWorkload workload(sim, c, wcfg);
    CellResult r;
    auto host0 = std::chrono::steady_clock::now();
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        (void)co_await workload.run();
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

struct ParallelCell {
    cluster::ParallelFleetResult fleet;
    double wall_s = 0;
    double events_per_sec = 0;
};

ParallelCell
runParallelCell(int workers, int threads)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = workers;
    cfg.simThreads = threads;
    cfg.coldStartMode = core::ColdStartMode::Reap;
    cfg.keepAlive = sec(60);
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.workload.functions = 12;
    cfg.workload.minInterarrival = sec(2);
    cfg.workload.maxInterarrival = sec(120);
    cfg.workload.horizon = sec(600);

    cluster::ParallelFleet fleet(cfg);
    ParallelCell c;
    auto host0 = std::chrono::steady_clock::now();
    c.fleet = fleet.run();
    auto host1 = std::chrono::steady_clock::now();
    c.wall_s = std::chrono::duration<double>(host1 - host0).count();
    c.events_per_sec =
        c.wall_s > 0 ? static_cast<double>(c.fleet.eventsProcessed) /
                           c.wall_s
                     : 0;
    return c;
}

ParallelCell
runShardCell(int workers, int threads, int shards, bool bursty)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = workers;
    cfg.simThreads = threads;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = shards;
    cfg.chunkPlacement = net::ChunkPlacementPolicy::OverlapAware;
    // Warm-first spreads invocations, so cold starts land away from
    // the home worker and genuinely pull through the shared store.
    cfg.routingPolicy = cluster::RoutingPolicyKind::WarmFirst;
    cfg.keepAlive = sec(60);

    cluster::TrafficConfig tc;
    tc.functions = 64;
    tc.tenants = 8;
    tc.aggregateRps = 12.0;
    tc.horizon = sec(300);
    if (bursty) {
        tc.diurnal.amplitude = 0.4;
        tc.diurnal.period = sec(300);
        cluster::BurstSpec crowd;
        crowd.kind = cluster::BurstKind::FlashCrowd;
        crowd.tenant = 2;
        crowd.start = sec(120);
        crowd.duration = sec(30);
        crowd.multiplier = 12.0;
        tc.bursts.push_back(crowd);
        cluster::BurstSpec storm;
        storm.kind = cluster::BurstKind::DeployStorm;
        storm.fraction = 0.25;
        storm.start = sec(200);
        storm.duration = sec(20);
        storm.multiplier = 6.0;
        tc.bursts.push_back(storm);
    }
    cfg.traffic = tc;

    cluster::ParallelFleet fleet(cfg);
    ParallelCell c;
    auto host0 = std::chrono::steady_clock::now();
    c.fleet = fleet.run();
    auto host1 = std::chrono::steady_clock::now();
    c.wall_s = std::chrono::duration<double>(host1 - host0).count();
    c.events_per_sec =
        c.wall_s > 0 ? static_cast<double>(c.fleet.eventsProcessed) /
                           c.wall_s
                     : 0;
    return c;
}

} // namespace

int
main()
{
    bench::banner("Fleet cold-start p99: workers x routing policy x "
                  "staging mode (Azure mix)");

    int max_workers = 16;
    if (const char *cap = std::getenv("VHIVE_FLEET_MAX_WORKERS"))
        max_workers = std::atoi(cap);

    const cluster::RoutingPolicyKind policies[] = {
        cluster::RoutingPolicyKind::WarmFirst,
        cluster::RoutingPolicyKind::LeastLoaded,
        cluster::RoutingPolicyKind::LocalityHash,
    };
    const ModeCell modes[] = {
        {"reap", core::ColdStartMode::Reap, false},
        {"tiered", core::ColdStartMode::TieredReap, false},
        {"tiered-shared", core::ColdStartMode::TieredReap, true},
    };

    bench::JsonWriter json("fleet_cold_p99");
    Table t({"workers", "policy", "mode", "inv", "cold%", "p50_ms",
             "p99_ms", "builds", "staged_MiB", "fan_in", "st_waits",
             "wall_s", "Mev/s"});

    for (int workers : {1, 4, 16}) {
        if (workers > max_workers)
            continue;
        for (auto policy : policies) {
            for (const ModeCell &mode : modes) {
                CellResult r = runCell(workers, policy, mode);
                const auto &fs = r.fleet;
                std::string cell =
                    "workers=" + std::to_string(workers) +
                    "/policy=" +
                    std::string(cluster::routingPolicyName(policy)) +
                    "/mode=" + mode.label;
                t.row()
                    .cell(static_cast<std::int64_t>(workers))
                    .cell(cluster::routingPolicyName(policy))
                    .cell(mode.label)
                    .cell(fs.invocations)
                    .cell(100.0 * fs.coldFraction(), 1)
                    .cell(fs.coldP50(), 1)
                    .cell(fs.coldP99(), 1)
                    .cell(fs.snapshotBuilds)
                    .cell(toMiB(fs.stagedBytes), 1)
                    .cell(fs.fetchFanIn)
                    .cell(fs.store.streamWaits)
                    .cell(r.wall_s, 2)
                    .cell(r.events_per_sec / 1e6, 1);
                json.row(cell, "cold_p50_ms", fs.coldP50());
                json.row(cell, "cold_p99_ms", fs.coldP99());
                json.row(cell, "cold_starts",
                         static_cast<double>(fs.coldE2eMs.count()));
                json.row(cell, "snapshot_builds",
                         static_cast<double>(fs.snapshotBuilds));
                json.row(cell, "staged_mib", toMiB(fs.stagedBytes));
                json.row(cell, "wall_s", r.wall_s, r.events_per_sec);
            }
        }
    }
    t.print();

    bench::banner("Multi-core fleet kernel: workers x sim threads "
                  "(ParallelKernel, REAP, locality-hash)");

    int max_threads = 8;
    if (const char *cap = std::getenv("VHIVE_FLEET_MAX_THREADS"))
        max_threads = std::atoi(cap);

    Table pt({"workers", "threads", "inv", "cold%", "p50_ms", "p99_ms",
              "digest", "windows", "wall_s", "Mev/s", "speedup"});
    // A cell that differs from its threads=1 reference fails the run.
    bool mismatch = false;
    for (int workers : {1, 4, 16, 64}) {
        if (workers > max_workers)
            continue;
        std::uint64_t ref_digest = 0;
        double ref_wall = 0;
        for (int threads : {1, 2, 4, 8}) {
            if (threads > max_threads)
                continue;
            ParallelCell c = runParallelCell(workers, threads);
            std::uint64_t d = c.fleet.digest();
            const char *match = "ref";
            if (threads == 1) {
                ref_digest = d;
                ref_wall = c.wall_s;
            } else {
                match = d == ref_digest ? "match" : "MISMATCH";
                mismatch = mismatch || d != ref_digest;
            }
            std::string cell = "pworkers=" + std::to_string(workers) +
                               "/threads=" + std::to_string(threads) +
                               "/mode=reap";
            pt.row()
                .cell(static_cast<std::int64_t>(workers))
                .cell(static_cast<std::int64_t>(threads))
                .cell(c.fleet.invocations)
                .cell(100.0 * c.fleet.coldFraction(), 1)
                .cell(c.fleet.coldP50(), 1)
                .cell(c.fleet.coldP99(), 1)
                .cell(match)
                .cell(c.fleet.windows)
                .cell(c.wall_s, 2)
                .cell(c.events_per_sec / 1e6, 1)
                .cell(c.wall_s > 0 ? ref_wall / c.wall_s : 0, 2);
            json.row(cell, "cold_p50_ms", c.fleet.coldP50());
            json.row(cell, "cold_p99_ms", c.fleet.coldP99());
            json.row(cell, "digest_matches_ref",
                     d == ref_digest ? 1 : 0);
            json.row(cell, "wall_s", c.wall_s, c.events_per_sec);
        }
    }
    pt.print();

    bench::banner("Parallel shared data plane: workers x store "
                  "shards x traffic shape (DedupReap staging, "
                  "overlap-aware placement)");

    int shard_threads = std::min(4, max_threads);
    Table st({"workers", "shards", "traffic", "inv", "cold", "p99_ms",
              "st_waits", "peakQ", "fetches", "up_MiB", "saved_MiB",
              "wall_s", "Mev/s"});
    for (int workers : {64, 256}) {
        // 64-worker cells always run — the CI perf floors gate them;
        // 256 is the planet-scale point, opt-in via the env cap.
        if (workers > 64 && workers > max_workers)
            continue;
        for (int shards : {1, 4, 16}) {
            for (bool bursty : {false, true}) {
                ParallelCell c = runShardCell(workers, shard_threads,
                                              shards, bursty);
                const auto &f = c.fleet;
                const char *shape = bursty ? "bursty" : "smooth";
                std::string cell =
                    "sworkers=" + std::to_string(workers) +
                    "/shards=" + std::to_string(shards) +
                    "/traffic=" + shape;
                st.row()
                    .cell(static_cast<std::int64_t>(workers))
                    .cell(static_cast<std::int64_t>(shards))
                    .cell(shape)
                    .cell(f.invocations)
                    .cell(f.coldStarts)
                    .cell(f.coldP99(), 1)
                    .cell(f.store.streamWaits)
                    .cell(f.store.peakStreamQueue)
                    .cell(f.remoteArtifactFetches)
                    .cell(toMiB(f.stagedBytes), 1)
                    .cell(toMiB(f.dedupSavedBytes), 1)
                    .cell(c.wall_s, 2)
                    .cell(c.events_per_sec / 1e6, 1);
                json.row(cell, "cold_p99_ms", f.coldP99());
                json.row(cell, "stream_waits",
                         static_cast<double>(f.store.streamWaits));
                json.row(cell, "peak_stream_queue",
                         static_cast<double>(f.store.peakStreamQueue));
                json.row(cell, "remote_fetches",
                         static_cast<double>(f.remoteArtifactFetches));
                json.row(cell, "staged_mib", toMiB(f.stagedBytes));
                json.row(cell, "dedup_saved_mib",
                         toMiB(f.dedupSavedBytes));
                for (std::size_t s = 0; s < f.storeShards.size(); ++s)
                    json.row(cell,
                             "shard" + std::to_string(s) +
                                 "_bytes_served",
                             static_cast<double>(
                                 f.storeShards[s].bytesServed));
                json.row(cell, "wall_s", c.wall_s, c.events_per_sec);
            }
        }
    }
    st.print();

    std::printf(
        "\nOne store shard serializes the flash crowd's concurrent "
        "cold-start fetches\nbehind its stream bound (st_waits, "
        "peakQ); sharding multiplies the aggregate\nstream capacity "
        "and overlap-aware placement keeps each function's chunks\n"
        "co-located, so the same burst passes through without "
        "queueing.\n");

    std::printf(
        "\nThe digest column fingerprints every simulated quantity "
        "(latencies, counters,\nevent totals): `match` means the run "
        "is bit-identical to its threads=1\nreference, so extra sim "
        "threads change wall-clock only. Speedup is the\n"
        "threads=1 wall time of the same fleet divided by this "
        "cell's.\n");

    std::printf(
        "\nShared staging builds each function's snapshot once and "
        "puts one artifact\ncopy in the fleet store; per-worker "
        "staging repeats both on every worker.\nLocality-aware "
        "routing concentrates a function's cold starts so the warm\n"
        "tiers admission populated stay hot; least-loaded trades "
        "that locality for\nbalance. Fleet percentiles, per-tier "
        "hits and stream contention come from\n"
        "Cluster::fleetStats().\n");
    return mismatch ? 1 : 0;
}

/**
 * @file
 * Tiered-source / windowed-fetch design-space sweep (the Sec. 7.1
 * remote-placement space the paper leaves open, explored the way
 * Fig. 7 explores the local design walk):
 *
 *  - tier placement: where the WS bytes are when the cold start lands
 *    (remote store only / local SSD copy / host page cache),
 *  - window size x in-flight depth: the shape of the remote fetch —
 *    one bulk GET amortizes per-request costs, N concurrent ranged
 *    GETs multiply per-stream bandwidth until the request overheads
 *    or the store's stream bound bite.
 *
 * All runs dispatch through the TieredReap SnapshotLoader; per-tier
 * hit/byte accounting comes from the tiered source itself.
 */

#include <cstdio>

#include "bench/common.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "net/object_store.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

struct SweepPoint {
    Bytes window;  // <0 = one bulk GET, 0 = adaptive (AIMD)
    int inFlight;
};

/** Mean fetchWs over @p reps tiered colds in one placement. */
struct PlacementMs {
    double remote = 0;
    double ssd = 0;
    double cache = 0;
};

constexpr const char *kFunction = "json_serdes";

/** One worker per (storeParams); sweeps all points on it. */
void
sweepStore(const char *label, net::ObjectStoreParams store_params,
           bool print_tiers)
{
    sim::Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = store_params;
    core::Worker w(sim, cfg);
    const auto &profile = func::profileByName(kFunction);

    const SweepPoint points[] = {
        {-1, 1},         // single bulk GET (the RemoteReap shape)
        {256 * kKiB, 1}, {256 * kKiB, 4}, {256 * kKiB, 8},
        {kMiB, 1},       {kMiB, 4},       {kMiB, 8},
        {4 * kMiB, 2},   {4 * kMiB, 4},
        {0, 4},          // adaptive: AIMD from observed rtt/bandwidth
    };

    std::printf("store: %s (rtt %.0f us, %.0f MB/s per stream, "
                "%d streams)\n\n",
                label, toUs(store_params.rtt),
                store_params.bandwidth / 1e6,
                store_params.concurrentStreams);

    Table t({"window", "in_flight", "remote_ms", "ssd_ms",
             "cache_ms", "remote_GETs"});
    double bulk_remote_ms = 0, best_remote_ms = 0;
    const SweepPoint *best_point = nullptr;

    bench::runScenario(sim, [&]() -> sim::Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(profile);
        co_await orch.prepareSnapshot(profile.name);
        orch.flushHostCaches();
        // Record once; the tiered runs below reuse the record.
        (void)co_await orch.invoke(profile.name,
                                   core::ColdStartMode::Reap);

        const int reps = 3;
        for (const SweepPoint &pt : points) {
            orch.reapOptions().tieredWindowBytes = pt.window;
            orch.reapOptions().tieredInFlight = pt.inFlight;
            PlacementMs ms;
            std::int64_t remote_gets = 0;

            core::InvokeOptions cold;
            cold.forceCold = true;
            cold.flushPageCache = true;

            for (int i = 0; i < reps; ++i) {
                // Placement 1: fresh worker — remote tier serves.
                orch.evictLocalArtifacts(profile.name);
                std::int64_t gets0 = w.objectStore().stats().gets;
                auto r = co_await orch.invoke(
                    profile.name, core::ColdStartMode::TieredReap,
                    cold);
                ms.remote += toMs(r.fetchWs) / reps;
                // Minus the VMM-state GET; mean over reps below.
                remote_gets +=
                    w.objectStore().stats().gets - gets0 - 1;
                if (print_tiers && i == 0 && pt.window == kMiB &&
                    pt.inFlight == 4) {
                    std::printf("per-tier accounting, window=1MiB "
                                "in_flight=4, fresh worker:\n");
                    for (const auto &tier : r.tierHits) {
                        std::printf(
                            "  %-10s hits %4lld  misses %4lld  "
                            "admitted %4lld  %6.1f MiB  %7.2f ms\n",
                            tier.label.c_str(),
                            static_cast<long long>(tier.hits),
                            static_cast<long long>(tier.misses),
                            static_cast<long long>(tier.admissions),
                            toMiB(tier.bytes), toMs(tier.time));
                    }
                    std::printf("\n");
                }

                // Placement 2: admitted local copy — SSD tier serves.
                auto s = co_await orch.invoke(
                    profile.name, core::ColdStartMode::TieredReap,
                    cold);
                ms.ssd += toMs(s.fetchWs) / reps;

                // Placement 3: cache-warm (one buffered pass first;
                // O_DIRECT SSD serves never pollute the cache).
                core::InvokeOptions warm;
                warm.forceCold = true;
                (void)co_await orch.invoke(
                    profile.name, core::ColdStartMode::WsFileCached,
                    warm);
                auto c = co_await orch.invoke(
                    profile.name, core::ColdStartMode::TieredReap,
                    warm);
                ms.cache += toMs(c.fetchWs) / reps;
            }

            if (pt.window < 0)
                bulk_remote_ms = ms.remote;
            if (pt.window > 0 &&
                (best_point == nullptr || ms.remote < best_remote_ms)) {
                best_remote_ms = ms.remote;
                best_point = &pt;
            }
            t.row()
                .cell(pt.window < 0    ? std::string("bulk")
                      : pt.window == 0 ? std::string("adaptive")
                                       : std::to_string(pt.window /
                                                        kKiB) +
                                             " KiB")
                .cell(static_cast<std::int64_t>(pt.inFlight))
                .cell(ms.remote, 2)
                .cell(ms.ssd, 2)
                .cell(ms.cache, 2)
                .cell(remote_gets / reps);
        }
    });

    t.print();
    std::printf("\nbest windowed remote fetch: %.2f ms "
                "(window %lld KiB, %d in flight) vs %.2f ms for one "
                "bulk GET -> %.2fx\n\n",
                best_remote_ms,
                static_cast<long long>(best_point->window / kKiB),
                best_point->inFlight, bulk_remote_ms,
                bulk_remote_ms / best_remote_ms);
}

} // namespace

int
main()
{
    bench::banner("Tiered fallback chain x windowed remote fetch "
                  "sweep (json_serdes)");

    // The paper's disaggregated-store point: datacenter round trip,
    // S3-like service costs, bounded streams.
    sweepStore("datacenter remote()", net::ObjectStoreParams::remote(),
               /*print_tiers=*/true);

    // A farther/slower store: higher rtt, half the per-stream rate —
    // the regime where the window/in-flight sweet spot shifts.
    net::ObjectStoreParams far = net::ObjectStoreParams::remote();
    far.rtt = msec(2);
    far.bandwidth = 100e6;
    sweepStore("far store (rtt 2 ms, 100 MB/s)", far,
               /*print_tiers=*/false);

    std::printf(
        "Concurrent ranged GETs multiply per-stream bandwidth until "
        "the request\noverheads (rtt + service cost per window) or "
        "the store's stream bound bite;\nthe local tiers admit "
        "remote bytes on the way through, so only the first\ncold "
        "start on a worker pays the remote path at all.\n");
    return 0;
}

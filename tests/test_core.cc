/**
 * @file
 * Core (REAP + orchestrator) tests: trace-file codec round trips, the
 * record phase, prefetch-phase fault elimination, mode ordering
 * (vanilla > parallel-PF > WS-file > REAP), warm routing, instance
 * lifecycle, and the Sec. 7.2 adaptive re-record policy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/options.hh"
#include "core/orchestrator.hh"
#include "core/worker.hh"
#include "core/ws_file.hh"
#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/page_set.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::core {
namespace {

using sim::Simulation;
using sim::Task;
using Opts = InvokeOptions;

/** Run a single orchestrator task to completion. */
template <typename Fn>
void
runScenario(Worker &w, Simulation &sim, Fn &&body)
{
    struct Runner {
        static Task<void>
        run(Worker &w, Fn &body)
        {
            co_await body(w.orchestrator());
        }
    };
    sim.spawn(Runner::run(w, body));
    sim.run();
}

TEST(TraceCodec, RoundTrip)
{
    WorkingSetRecord r;
    r.pages = {0, 512, 513, 514, 1000, 999, 70000};
    auto bytes = TraceFileCodec::encode(r);
    EXPECT_EQ(static_cast<Bytes>(bytes.size()),
              TraceFileCodec::encodedSize(r));
    auto decoded = TraceFileCodec::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->pages, r.pages);
}

TEST(TraceCodec, EmptyRecord)
{
    WorkingSetRecord r;
    auto bytes = TraceFileCodec::encode(r);
    auto decoded = TraceFileCodec::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->pages.empty());
}

TEST(TraceCodec, DetectsCorruption)
{
    WorkingSetRecord r;
    for (std::int64_t i = 0; i < 1000; ++i)
        r.pages.push_back(i * 3);
    auto bytes = TraceFileCodec::encode(r);
    // Flip a payload byte.
    auto corrupted = bytes;
    corrupted[bytes.size() / 2] ^= 0x40;
    EXPECT_FALSE(TraceFileCodec::decode(corrupted).has_value());
    // Truncate.
    auto truncated = bytes;
    truncated.resize(truncated.size() - 5);
    EXPECT_FALSE(TraceFileCodec::decode(truncated).has_value());
    // Bad magic.
    auto bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_FALSE(TraceFileCodec::decode(bad_magic).has_value());
}

namespace {

/** Recompute and overwrite the trailing CRC of an encoded buffer. */
void
refreshCrc(std::vector<std::uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), 4u);
    std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
    for (int i = 0; i < 4; ++i)
        bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
}

} // namespace

TEST(TraceCodec, RejectsBadMagic)
{
    WorkingSetRecord r;
    r.pages = {1, 2, 3};
    auto bytes = TraceFileCodec::encode(r);
    // Corrupt the magic but keep the CRC valid, so the rejection can
    // only come from the magic check itself.
    bytes[0] = 'X';
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsBadVersion)
{
    WorkingSetRecord r;
    r.pages = {1, 2, 3};
    auto bytes = TraceFileCodec::encode(r);
    // The format version is the trailing magic byte ('1'). Bump it
    // with a valid CRC: still rejected.
    bytes[7] = '2';
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsCrcMismatch)
{
    WorkingSetRecord r;
    r.pages = {4, 9, 12, 40};
    auto bytes = TraceFileCodec::encode(r);
    bytes.back() ^= 0xff; // corrupt the stored CRC itself
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsTruncatedVarintStream)
{
    // A buffer whose header promises more varints than the payload
    // carries, with a *valid* CRC over the truncated bytes: decode
    // must fail on the varint stream, not the checksum.
    WorkingSetRecord r;
    r.pages = {100, 200, 300, 400, 500};
    auto bytes = TraceFileCodec::encode(r);
    // Drop two payload bytes (keeping the 4 CRC bytes at the end).
    bytes.erase(bytes.end() - 6, bytes.end() - 4);
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsTrailingGarbage)
{
    // Extra payload bytes after the promised varints (valid CRC):
    // the decoder must notice the stream did not end at the CRC.
    WorkingSetRecord r;
    r.pages = {7, 8, 9};
    auto bytes = TraceFileCodec::encode(r);
    bytes.insert(bytes.end() - 4, std::uint8_t{0x00});
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsNegativePageDelta)
{
    // A delta stream that walks below page 0 is corrupt even when the
    // CRC and framing are intact.
    std::vector<std::uint8_t> bytes = {'R', 'E', 'A', 'P',
                                       'T', 'R', 'C', '1'};
    bytes.push_back(1); // count = 1
    // zigzag(-1) = 1: first (absolute) page would be -1.
    bytes.push_back(1);
    bytes.resize(bytes.size() + 4);
    refreshCrc(bytes);
    EXPECT_FALSE(TraceFileCodec::decode(bytes).has_value());
}

TEST(TraceCodec, RejectsTooShortBuffer)
{
    std::vector<std::uint8_t> tiny = {'R', 'E', 'A', 'P'};
    EXPECT_FALSE(TraceFileCodec::decode(tiny).has_value());
    EXPECT_FALSE(
        TraceFileCodec::decode(std::vector<std::uint8_t>{})
            .has_value());
}

TEST(TraceCodec, DeltaEncodingIsCompact)
{
    // Mostly-contiguous pages should encode in ~1-2 bytes per entry.
    WorkingSetRecord r;
    std::int64_t page = 1000;
    for (int i = 0; i < 4096; ++i) {
        r.pages.push_back(page);
        page += (i % 3 == 0) ? 5 : 1;
    }
    auto bytes = TraceFileCodec::encode(r);
    EXPECT_LT(bytes.size(), 4096u * 2 + 64);
}

TEST(TraceCodec, Crc32KnownVector)
{
    // CRC32("123456789") = 0xCBF43926 (IEEE check value).
    const char *s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(s), 9),
              0xCBF43926u);
}

/** A PageSet holding exactly @p pages. */
PageSet
pagesOf(std::initializer_list<std::int64_t> pages)
{
    PageSet set;
    for (std::int64_t p : pages)
        set.insert(p);
    return set;
}

TEST(WorkingSetRecord, WastedAgainst)
{
    WorkingSetRecord r;
    r.pages = {1, 2, 3, 10, 11};
    EXPECT_EQ(r.wastedAgainst(pagesOf({2, 3, 10, 50})), 2); // 1 and 11
    EXPECT_EQ(r.wsFileBytes(), 5 * kPageSize);
}

TEST(WorkingSetRecord, WastedAgainstEdgeCases)
{
    WorkingSetRecord empty;
    EXPECT_EQ(empty.wastedAgainst(pagesOf({})), 0);
    EXPECT_EQ(empty.wastedAgainst(pagesOf({1, 2, 3})), 0);
    EXPECT_EQ(empty.wsFileBytes(), 0);

    WorkingSetRecord r;
    r.pages = {5, 6, 7};
    // Nothing touched: the whole record was wasted.
    EXPECT_EQ(r.wastedAgainst(pagesOf({})), 3);
    // Touched superset: nothing wasted.
    EXPECT_EQ(r.wastedAgainst(pagesOf({4, 5, 6, 7, 8})), 0);
    // Exact match.
    EXPECT_EQ(r.wastedAgainst(pagesOf({5, 6, 7})), 0);

    // Duplicate record entries each count against the touched set
    // (the WS file stores one copy per recorded fault).
    WorkingSetRecord dup;
    dup.pages = {3, 3, 9};
    EXPECT_EQ(dup.wastedAgainst(pagesOf({3})), 1);  // only 9 missing
    EXPECT_EQ(dup.wastedAgainst(pagesOf({10})), 3); // both 3s and the 9

    // Record pages far past the touched set's storage are misses, not
    // out-of-range reads.
    WorkingSetRecord far;
    far.pages = {2, 1 << 20};
    EXPECT_EQ(far.wastedAgainst(pagesOf({2})), 1);
}

/**
 * Property: on random records and traces, the bitmap waste count of a
 * trace's touchedSet() equals a naive std::set count. Records mix
 * trace pages, duplicates, pages outside every run and pages far past
 * the traces' highest page; some records and traces are empty.
 */
TEST(WorkingSetRecord, WastedAgainstMatchesNaiveSetCount)
{
    Rng rng(13, "wasted-property");
    for (int iter = 0; iter < 300; ++iter) {
        func::InvocationTrace trace;
        std::set<std::int64_t> touched;
        std::int64_t n_runs = rng.uniformInt(0, 40);
        for (std::int64_t i = 0; i < n_runs; ++i) {
            std::int64_t page = rng.uniformInt(0, 5000);
            std::int64_t len = rng.uniformInt(1, 70);
            trace.runs.push_back({page, len});
            for (std::int64_t p = page; p < page + len; ++p)
                touched.insert(p);
        }
        std::vector<std::int64_t> from_trace(touched.begin(),
                                             touched.end());

        WorkingSetRecord r;
        std::int64_t n_pages = iter % 10 == 0 ? 0 : rng.uniformInt(1, 200);
        for (std::int64_t i = 0; i < n_pages; ++i) {
            std::int64_t p;
            switch (rng.uniformInt(0, 3)) {
              case 0: // a touched page, if there is one
                p = from_trace.empty()
                        ? rng.uniformInt(0, 5000)
                        : from_trace[static_cast<size_t>(rng.uniformInt(
                              0, static_cast<std::int64_t>(
                                     from_trace.size()) - 1))];
                break;
              case 1: // anywhere in the traces' range
                p = rng.uniformInt(0, 5100);
                break;
              case 2: // beyond every run and the set's storage
                p = rng.uniformInt(100000, 1 << 22);
                break;
              default: // duplicate an earlier entry
                p = r.pages.empty()
                        ? rng.uniformInt(0, 5100)
                        : r.pages[static_cast<size_t>(rng.uniformInt(
                              0, r.pageCount() - 1))];
            }
            r.pages.push_back(p);
        }

        std::int64_t naive = 0;
        for (std::int64_t p : r.pages)
            if (!touched.count(p))
                ++naive;
        PageSet set = trace.touchedSet();
        EXPECT_EQ(set.size(), static_cast<std::int64_t>(touched.size()));
        EXPECT_EQ(r.wastedAgainst(set), naive) << "iteration " << iter;
    }
}

TEST(Orchestrator, RecordThenPrefetchEliminatesFaults)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown record_bd, reap_bd;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");

        orch.flushHostCaches();
        record_bd = co_await orch.invoke(
            "helloworld", ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(record_bd.recordPhase);
        EXPECT_TRUE(orch.hasRecord("helloworld"));

        orch.flushHostCaches();
        reap_bd = co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_FALSE(reap_bd.recordPhase);
    });

    // The record phase faults the full working set through userspace.
    EXPECT_GT(record_bd.majorFaults, 500);
    // REAP eliminates the overwhelming majority of faults (97% avg).
    EXPECT_LT(reap_bd.residualFaults, record_bd.majorFaults / 10);
    EXPECT_GT(reap_bd.prefetchedPages, 1500);
    // And slashes the cold-start latency (3.7x avg; helloworld ~3.9x).
    EXPECT_LT(reap_bd.total, record_bd.total / 2);
}

TEST(Orchestrator, ModeOrderingMatchesFig7)
{
    // Vanilla > ParallelPFs > WS-file > REAP for helloworld (Fig. 7).
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown vanilla, par_pf, ws_file, reap;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        // Record once so prefetch modes have the trace/WS files.
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});

        orch.flushHostCaches();
        vanilla = co_await orch.invoke(
            "helloworld", ColdStartMode::VanillaSnapshot, Opts{});
        orch.flushHostCaches();
        par_pf = co_await orch.invoke(
            "helloworld", ColdStartMode::ParallelPageFaults, Opts{});
        orch.flushHostCaches();
        ws_file = co_await orch.invoke(
            "helloworld", ColdStartMode::WsFileCached, Opts{});
        orch.flushHostCaches();
        reap = co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                    Opts{});
    });

    EXPECT_GT(vanilla.total, par_pf.total);
    EXPECT_GT(par_pf.total, ws_file.total);
    EXPECT_GT(ws_file.total, reap.total);
    // REAP's O_DIRECT fetch beats the page-cached fetch.
    EXPECT_LT(reap.fetchWs, ws_file.fetchWs);
    // All prefetch modes fetch the same page count.
    EXPECT_EQ(ws_file.prefetchedPages, reap.prefetchedPages);
}

TEST(Orchestrator, WarmRoutingAndKeepWarm)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown cold, warm;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("pyaes");
        orch.flushHostCaches();
        Opts keep;
        keep.keepWarm = true;
        cold = co_await orch.invoke(
            "pyaes", ColdStartMode::VanillaSnapshot, keep);
        EXPECT_EQ(orch.instanceCount("pyaes"), 1);
        warm = co_await orch.invoke(
            "pyaes", ColdStartMode::VanillaSnapshot, Opts{});
        co_await orch.stopAllInstances("pyaes");
    });
    EXPECT_TRUE(cold.cold);
    EXPECT_FALSE(warm.cold);
    EXPECT_EQ(warm.loadVmm, 0);
    EXPECT_EQ(warm.connRestore, 0);
    // One-to-two orders of magnitude (Sec. 4.2).
    EXPECT_GT(cold.total, 20 * warm.total);
}

TEST(Orchestrator, InstanceLifecycle)
{
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        EXPECT_EQ(orch.instanceCount("helloworld"), 0);

        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep);
        EXPECT_EQ(orch.instanceCount("helloworld"), 1);
        EXPECT_EQ(orch.idleInstanceCount("helloworld"), 1);

        Opts keep_cold;
        keep_cold.keepWarm = true;
        keep_cold.forceCold = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep_cold);
        EXPECT_EQ(orch.instanceCount("helloworld"), 2);

        co_await orch.stopAllInstances("helloworld");
        EXPECT_EQ(orch.instanceCount("helloworld"), 0);
    });
}

TEST(Orchestrator, FootprintRestoredVsBooted)
{
    // Fig. 4: restored instances have a small fraction of the booted
    // footprint.
    Simulation sim;
    Worker w(sim);
    Bytes booted = 0, restored = 0;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("lr_serving"));
        co_await orch.prepareSnapshot("lr_serving");

        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke(
            "lr_serving", ColdStartMode::BootFromScratch, keep);
        booted = orch.instanceFootprints("lr_serving")[0];
        co_await orch.stopAllInstances("lr_serving");

        orch.flushHostCaches();
        (void)co_await orch.invoke(
            "lr_serving", ColdStartMode::VanillaSnapshot, keep);
        restored = orch.instanceFootprints("lr_serving")[0];
        co_await orch.stopAllInstances("lr_serving");
    });
    const auto &p = func::profileByName("lr_serving");
    EXPECT_NEAR(toMiB(booted), toMiB(p.bootFootprint) + 3.0, 5.0);
    EXPECT_NEAR(toMiB(restored), toMiB(p.workingSet) + 3.0, 5.0);
    EXPECT_LT(restored, booted / 4);
}

TEST(Orchestrator, RecordOverheadModest)
{
    // Sec. 6.4: the record phase costs 15-87% (28% avg) over vanilla.
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown vanilla, record;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        vanilla = co_await orch.invoke(
            "helloworld", ColdStartMode::VanillaSnapshot, Opts{});
        orch.flushHostCaches();
        record = co_await orch.invoke("helloworld",
                                      ColdStartMode::Reap, Opts{});
    });
    EXPECT_TRUE(record.recordPhase);
    double overhead = static_cast<double>(record.total) /
                          static_cast<double>(vanilla.total) -
                      1.0;
    EXPECT_GT(overhead, 0.05);
    EXPECT_LT(overhead, 0.90);
}

TEST(Orchestrator, MispredictionsTrackUniquePages)
{
    // Sec. 7.1: wasted prefetched pages ~= the unique-page fraction.
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown bd;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("image_rotate"));
        co_await orch.prepareSnapshot("image_rotate");
        orch.flushHostCaches();
        (void)co_await orch.invoke("image_rotate",
                                   ColdStartMode::Reap, Opts{});
        orch.flushHostCaches();
        bd = co_await orch.invoke("image_rotate", ColdStartMode::Reap,
                                  Opts{});
    });
    const auto &p = func::profileByName("image_rotate");
    double wasted_frac = static_cast<double>(bd.wastedPrefetch) /
                         static_cast<double>(bd.prefetchedPages);
    EXPECT_GT(wasted_frac, p.uniqueFrac * 0.4);
    EXPECT_LT(wasted_frac, p.uniqueFrac * 1.6);
}

TEST(Orchestrator, AdaptiveRerecord)
{
    // Sec. 7.2: drifting working sets trigger a re-record when the
    // policy is enabled.
    Simulation sim;
    WorkerConfig cfg;
    cfg.reap.adaptiveRerecord = true;
    cfg.reap.rerecordThreshold = 0.05;
    Worker w(sim, cfg);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(
            func::profileByName("video_processing"));
        co_await orch.prepareSnapshot("video_processing");
        orch.flushHostCaches();
        auto r1 = co_await orch.invoke("video_processing",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r1.recordPhase);
        orch.flushHostCaches();
        auto r2 = co_await orch.invoke("video_processing",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_FALSE(r2.recordPhase);
        // Drift (45% of the stable pool shifts) exceeds the threshold.
        EXPECT_GT(orch.stats("video_processing").rerecordsTriggered,
                  0);
        orch.flushHostCaches();
        auto r3 = co_await orch.invoke("video_processing",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r3.recordPhase); // re-recorded
    });
}

TEST(Orchestrator, ConnRestoreShrinksWithReap)
{
    // Sec. 6.3: connection restoration shrinks ~45x to 4-7 ms.
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown vanilla, reap;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("chameleon"));
        co_await orch.prepareSnapshot("chameleon");
        orch.flushHostCaches();
        vanilla = co_await orch.invoke(
            "chameleon", ColdStartMode::VanillaSnapshot, Opts{});
        orch.flushHostCaches();
        (void)co_await orch.invoke("chameleon", ColdStartMode::Reap,
                                   Opts{});
        orch.flushHostCaches();
        reap = co_await orch.invoke("chameleon", ColdStartMode::Reap,
                                    Opts{});
    });
    EXPECT_GT(vanilla.connRestore, msec(60));
    EXPECT_GT(reap.connRestore, msec(3));
    EXPECT_LT(reap.connRestore, msec(9));
    EXPECT_GT(vanilla.connRestore, 10 * reap.connRestore);
}

TEST(Orchestrator, BootModeWorksWithoutSnapshot)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown bd;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        bd = co_await orch.invoke(
            "helloworld", ColdStartMode::BootFromScratch, Opts{});
    });
    EXPECT_TRUE(bd.cold);
    // Boot >> snapshot restore (Sec. 2.2: 700-1300 ms + init).
    EXPECT_GT(bd.total, msec(700));
}

TEST(Orchestrator, StatsAccumulate)
{
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep);
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});
        co_await orch.stopAllInstances("helloworld");
    });
    const auto &st = w.orchestrator().stats("helloworld");
    EXPECT_EQ(st.coldInvocations, 1);
    EXPECT_EQ(st.recordPhases, 1);
    EXPECT_EQ(st.warmInvocations, 2);
}


TEST(Orchestrator, ParallelPfInstallsExactlyTheRecord)
{
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown bd;
    std::int64_t recorded = 0;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("pyaes"));
        co_await orch.prepareSnapshot("pyaes");
        orch.flushHostCaches();
        (void)co_await orch.invoke("pyaes", ColdStartMode::Reap,
                                   Opts{});
        recorded = orch.record("pyaes").pageCount();
        Opts opts;
        opts.flushPageCache = true;
        opts.forceCold = true;
        bd = co_await orch.invoke(
            "pyaes", ColdStartMode::ParallelPageFaults, opts);
    });
    EXPECT_EQ(bd.prefetchedPages, recorded);
    EXPECT_GT(bd.fetchWs, 0);
    EXPECT_EQ(bd.installWs, 0); // installs interleave with fetches
    EXPECT_LT(bd.residualFaults, recorded / 10);
}

TEST(Orchestrator, WsFileModeBenefitsFromWarmPageCache)
{
    // Behavioral contrast: the page-cached WS-file fetch collapses
    // when the file is already resident, while REAP's O_DIRECT fetch
    // pays the device cost every time (Sec. 5.2.3).
    Simulation sim;
    Worker w(sim);
    LatencyBreakdown ws_cold, ws_warm_cache, reap_cold,
        reap_warm_cache;
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        orch.flushHostCaches();
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   Opts{});
        Opts flush;
        flush.flushPageCache = true;
        flush.forceCold = true;
        Opts no_flush;
        no_flush.forceCold = true;

        ws_cold = co_await orch.invoke(
            "helloworld", ColdStartMode::WsFileCached, flush);
        ws_warm_cache = co_await orch.invoke(
            "helloworld", ColdStartMode::WsFileCached, no_flush);
        reap_cold = co_await orch.invoke("helloworld",
                                         ColdStartMode::Reap, flush);
        reap_warm_cache = co_await orch.invoke(
            "helloworld", ColdStartMode::Reap, no_flush);
    });
    // Cached WS file: second fetch nearly free.
    EXPECT_LT(ws_warm_cache.fetchWs, ws_cold.fetchWs / 5);
    // O_DIRECT: cache residency does not help the fetch.
    EXPECT_GT(reap_warm_cache.fetchWs, reap_cold.fetchWs / 2);
}

TEST(Orchestrator, RerecordUsesNewInput)
{
    // After invalidation, the next cold start re-records with the
    // current input; the new record covers that input's unique pages.
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("image_rotate"));
        co_await orch.prepareSnapshot("image_rotate");
        orch.flushHostCaches();
        auto r1 = co_await orch.invoke("image_rotate",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r1.recordPhase);
        auto first = orch.record("image_rotate").pages;
        std::sort(first.begin(), first.end());

        orch.invalidateRecord("image_rotate");
        orch.flushHostCaches();
        auto r2 = co_await orch.invoke("image_rotate",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(r2.recordPhase);
        auto second = orch.record("image_rotate").pages;
        std::sort(second.begin(), second.end());
        // Different inputs -> records differ in their unique parts.
        EXPECT_NE(first, second);
        EXPECT_EQ(orch.stats("image_rotate").recordPhases, 2);
    });
}

/**
 * A re-record completes while another cold start of the same function
 * is still fetching its working set. The re-record publishes a new
 * record object and drops the function's reference to the old one;
 * the in-flight start keeps the old one alive, installs exactly it,
 * and frees it when done. Run for the interleaved fetch
 * (ParallelPageFaults walks the record's page list across
 * suspensions: without the pin, a use after free under ASan) and the
 * bulk fetch then install (RemoteReap reads the record again after
 * the fetch: without the pin, it installs the new record).
 */
struct MidPrefetchCase
{
    ColdStartMode mode;
    const char *label;
};

/** What the in-flight cold start saw, with or without the re-record. */
struct MidPrefetchRun
{
    LatencyBreakdown inFlight, rerecord;
    Time inFlightStart = -1, inFlightDone = -1, rerecordDone = -1;
    /** Not held here: the in-flight start must keep it alive. */
    std::weak_ptr<const WorkingSetRecord> oldRec;
    std::vector<std::int64_t> oldPages;
    std::shared_ptr<const WorkingSetRecord> newRec;
    /** Whether nothing held the old record once the run drained. */
    bool oldFreed = false;
};

MidPrefetchRun
runMidPrefetch(ColdStartMode mode, bool rerecord)
{
    const std::string fn = "image_rotate";
    Simulation sim;
    WorkerConfig cfg;
    // WS fetches of tens of seconds, so the re-record lands mid-fetch:
    // one page per UFFDIO_COPY call, made costly (the record phase
    // makes one call per fault run), or a slow store.
    if (mode == ColdStartMode::ParallelPageFaults) {
        cfg.reap.parallelPfWorkers = 1;
        cfg.uffd.copySyscall = msec(5);
    } else {
        cfg.objectStore.bandwidth = 1e6;
    }
    Worker w(sim, cfg);
    MidPrefetchRun out;
    struct Racers {
        static Task<void>
        prefetch(Simulation &sim, Orchestrator &orch,
                 const std::string &fn, ColdStartMode mode,
                 MidPrefetchRun *out)
        {
            Opts cold;
            cold.forceCold = true;
            cold.flushPageCache = true;
            out->inFlight = co_await orch.invoke(fn, mode, cold);
            out->inFlightDone = sim.now();
        }
    };
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName(fn));
        co_await orch.prepareSnapshot(fn);
        Opts first;
        first.inputId = 0;
        LatencyBreakdown rec_bd =
            co_await orch.invoke(fn, ColdStartMode::Reap, first);
        EXPECT_TRUE(rec_bd.recordPhase);
        // Stage the remote artifacts outside the race.
        Opts cold;
        cold.forceCold = true;
        (void)co_await orch.invoke(fn, mode, cold);
        out.oldRec = orch.sharedRecord(fn);
        out.oldPages = orch.record(fn).pages;

        out.inFlightStart = sim.now();
        sim.spawn(Racers::prefetch(sim, orch, fn, mode, &out));
        if (!rerecord)
            co_return;
        // Past the control-plane step: the start is loading.
        co_await sim.delay(msec(100));
        orch.invalidateRecord(fn);
        Opts again;
        again.forceCold = true;
        again.inputId = 7;
        out.rerecord = co_await orch.invoke(fn, ColdStartMode::Reap, again);
        out.rerecordDone = sim.now();
        out.newRec = orch.sharedRecord(fn);
    });
    if (rerecord) {
        EXPECT_EQ(&w.orchestrator().record(fn), out.newRec.get());
    }
    out.oldFreed = out.oldRec.expired();
    return out;
}

class RerecordMidPrefetch : public ::testing::TestWithParam<MidPrefetchCase>
{
};

TEST_P(RerecordMidPrefetch, InFlightStartKeepsItsRecord)
{
    const MidPrefetchCase c = GetParam();
    MidPrefetchRun quiet = runMidPrefetch(c.mode, false);
    MidPrefetchRun raced = runMidPrefetch(c.mode, true);

    // The race happened: the re-record started after the in-flight
    // start dispatched and finished before its fetch did (the fetch
    // ends after VMM load plus fetch time, counted from no earlier
    // than the spawn), with different content.
    EXPECT_TRUE(raced.rerecord.recordPhase) << c.label;
    EXPECT_FALSE(raced.inFlight.recordPhase) << c.label;
    ASSERT_GE(raced.inFlightDone, 0) << c.label;
    EXPECT_LT(raced.rerecordDone, raced.inFlightStart +
                                      raced.inFlight.loadVmm +
                                      raced.inFlight.fetchWs)
        << c.label << ": load " << toMs(raced.inFlight.loadVmm)
        << " ms, fetch " << toMs(raced.inFlight.fetchWs)
        << " ms, re-record done at "
        << toMs(raced.rerecordDone - raced.inFlightStart) << " ms";
    ASSERT_NE(raced.newRec, nullptr);
    EXPECT_NE(raced.newRec->pages, raced.oldPages) << c.label;

    // The in-flight start loaded the old record, whole: it prefetched
    // and installed the same pages as without the race, so its trace
    // faulted on the same residual pages. Its pin was the old record's
    // last reference.
    EXPECT_EQ(raced.oldPages, quiet.oldPages);
    EXPECT_EQ(raced.inFlight.prefetchedPages,
              static_cast<std::int64_t>(raced.oldPages.size()));
    EXPECT_EQ(raced.inFlight.residualFaults, quiet.inFlight.residualFaults)
        << c.label;
    // Its waste is judged against the record it fetched, not the one
    // the re-record published meanwhile.
    EXPECT_GT(quiet.inFlight.wastedPrefetch, 0) << c.label;
    EXPECT_EQ(raced.inFlight.wastedPrefetch, quiet.inFlight.wastedPrefetch)
        << c.label;
    EXPECT_TRUE(raced.oldFreed) << c.label;
    EXPECT_FALSE(quiet.oldFreed) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Orchestrator, RerecordMidPrefetch,
    ::testing::Values(
        MidPrefetchCase{ColdStartMode::ParallelPageFaults,
                        "ParallelPageFaults"},
        MidPrefetchCase{ColdStartMode::RemoteReap, "RemoteReap"}),
    [](const auto &info) { return std::string(info.param.label); });

TEST(Orchestrator, StopAllReclaimsManyInstances)
{
    Simulation sim;
    Worker w(sim);
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        Opts keep;
        keep.keepWarm = true;
        keep.forceCold = true;
        for (int i = 0; i < 5; ++i)
            (void)co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, keep);
        EXPECT_EQ(orch.instanceCount("helloworld"), 5);
        co_await orch.stopAllInstances("helloworld");
        EXPECT_EQ(orch.instanceCount("helloworld"), 0);
        // Fresh start still works after mass teardown.
        auto bd = co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, Opts{});
        EXPECT_TRUE(bd.cold);
    });
}

TEST(Orchestrator, ScaleDownRacingWarmDispatchStartsCold)
{
    // A keep-alive scale-down has sent the monitor its shutdown and is
    // waiting out the handshake when a warm dispatch for the same
    // function arrives. The dispatch must not claim the stopping
    // instance (it is freed once the handshake completes); it starts
    // a fresh one instead, and the scale-down retires only its victim.
    Simulation sim;
    Worker w(sim);
    std::int64_t stopped = -1;
    LatencyBreakdown raced;
    struct Racers {
        static Task<void>
        scaleDown(Orchestrator &orch, std::int64_t *out)
        {
            *out = co_await orch.stopIdleInstances("helloworld");
        }
        static Task<void>
        dispatch(Orchestrator &orch, LatencyBreakdown *out)
        {
            Opts keep;
            keep.keepWarm = true;
            *out = co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                        keep);
        }
    };
    runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
        orch.registerFunction(func::profileByName("helloworld"));
        co_await orch.prepareSnapshot("helloworld");
        Opts keep;
        keep.keepWarm = true;
        (void)co_await orch.invoke("helloworld", ColdStartMode::Reap,
                                   keep);
        EXPECT_EQ(orch.instanceCount("helloworld"), 1);
        sim.spawn(Racers::scaleDown(orch, &stopped));
        sim.spawn(Racers::dispatch(orch, &raced));
    });
    EXPECT_EQ(stopped, 1);
    EXPECT_TRUE(raced.cold);
    EXPECT_EQ(w.orchestrator().instanceCount("helloworld"), 1);
    EXPECT_EQ(w.orchestrator().idleInstanceCount("helloworld"), 1);
}

TEST(Orchestrator, OverlapAblationReducesLatency)
{
    // Ablation: overlapping the WS fetch with VMM-state load shortens
    // REAP cold starts for working sets whose fetch fits under the
    // load time.
    auto run_with = [](bool overlap) {
        Simulation sim;
        WorkerConfig cfg;
        cfg.reap.overlapFetchWithVmmLoad = overlap;
        Worker w(sim, cfg);
        LatencyBreakdown bd;
        runScenario(w, sim, [&](Orchestrator &orch) -> Task<void> {
            orch.registerFunction(func::profileByName("helloworld"));
            co_await orch.prepareSnapshot("helloworld");
            orch.flushHostCaches();
            (void)co_await orch.invoke("helloworld",
                                       ColdStartMode::Reap, Opts{});
            orch.flushHostCaches();
            bd = co_await orch.invoke("helloworld",
                                      ColdStartMode::Reap, Opts{});
        });
        return bd.total;
    };
    Duration without = run_with(false);
    Duration with = run_with(true);
    EXPECT_LT(with, without);
}

} // namespace
} // namespace vhive::core

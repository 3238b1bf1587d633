/**
 * @file
 * Tests for guest memory backing modes and the userfaultfd model,
 * including a miniature record-style monitor loop.
 */

#include <gtest/gtest.h>

#include <vector>

#include "host/cpu_pool.hh"
#include "mem/guest_memory.hh"
#include "mem/page_fetch.hh"
#include "mem/page_source.hh"
#include "mem/tiered_source.hh"
#include "sim/fault.hh"
#include "mem/uffd.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/disk.hh"
#include "storage/file_store.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::mem {
namespace {

using sim::Simulation;
using sim::Task;

struct Fixture {
    Simulation sim;
    storage::DiskDevice ssd{sim, storage::DiskParams::ssd()};
    storage::FileStore fs{sim, ssd};
};

TEST(CpuPool, SerializesBeyondCoreCount)
{
    Simulation sim;
    host::CpuPool pool(sim, 2);
    sim::Latch done(sim, 4);
    struct Job {
        static Task<void>
        run(host::CpuPool &pool, sim::Latch *done)
        {
            co_await pool.exec(msec(10));
            done->arrive();
        }
    };
    for (int i = 0; i < 4; ++i)
        sim.spawn(Job::run(pool, &done));
    Time end = sim.run();
    EXPECT_EQ(end, msec(20)); // two waves on two cores
    EXPECT_EQ(pool.idleCores(), 2);
}

TEST(GuestMemory, AnonymousTouchMaterializesPages)
{
    Fixture fx;
    GuestMemory gm(fx.sim, fx.fs, 1024);
    gm.backAnonymous();
    struct T {
        static Task<void>
        run(GuestMemory &gm)
        {
            co_await gm.touchRun(0, 64);
            co_await gm.touchRun(100, 4);
        }
    };
    fx.sim.spawn(T::run(gm));
    fx.sim.run();
    EXPECT_EQ(gm.presentPages(), 68);
    EXPECT_TRUE(gm.isPresent(0));
    EXPECT_TRUE(gm.isPresent(103));
    EXPECT_FALSE(gm.isPresent(104));
    EXPECT_EQ(gm.stats().majorFaults, 2);
}

TEST(GuestMemory, RepeatTouchIsMinor)
{
    Fixture fx;
    GuestMemory gm(fx.sim, fx.fs, 1024);
    gm.backAnonymous();
    struct T {
        static Task<void>
        run(GuestMemory &gm)
        {
            co_await gm.touchRun(0, 10);
            co_await gm.touchRun(0, 10);
        }
    };
    fx.sim.spawn(T::run(gm));
    fx.sim.run();
    EXPECT_EQ(gm.stats().majorFaults, 1);
    EXPECT_EQ(gm.stats().minorFaults, 10);
    EXPECT_EQ(gm.presentPages(), 10);
}

TEST(GuestMemory, LazyFileFaultsReadFromDisk)
{
    Fixture fx;
    auto mem_file = fx.fs.createFile("snap.mem", 1024 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 1024);
    gm.backLazyFile(mem_file);
    Duration took = 0;
    struct T {
        static Task<void>
        run(Fixture &fx, GuestMemory &gm, Duration &out)
        {
            Time t0 = fx.sim.now();
            co_await gm.touchRun(16, 3);
            out = fx.sim.now() - t0;
        }
    };
    fx.sim.spawn(T::run(fx, gm, took));
    fx.sim.run();
    EXPECT_EQ(gm.presentPages(), 3);
    EXPECT_GT(fx.ssd.stats().bytesRead, 0);
    // Fault path: serialized miss stage + device access, order 100s us.
    EXPECT_GT(took, usec(150));
    EXPECT_LT(took, msec(2));
}

TEST(GuestMemory, LazyFileMixedRunSplitsFaults)
{
    Fixture fx;
    auto mem_file = fx.fs.createFile("snap.mem", 1024 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 1024);
    gm.backLazyFile(mem_file);
    struct T {
        static Task<void>
        run(GuestMemory &gm)
        {
            co_await gm.touchRun(10, 4);  // pages 10..13 resident
            co_await gm.touchRun(8, 8);   // 8,9 missing; 10..13 hit;
                                          // 14,15 missing
        }
    };
    fx.sim.spawn(T::run(gm));
    fx.sim.run();
    EXPECT_EQ(gm.presentPages(), 8);
    EXPECT_EQ(gm.stats().majorFaults, 3);
    EXPECT_EQ(gm.stats().minorFaults, 4);
}

TEST(GuestMemory, BackLazyFileResetsPresence)
{
    Fixture fx;
    auto mem_file = fx.fs.createFile("snap.mem", 1024 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 1024);
    gm.backAnonymous();
    struct T {
        static Task<void>
        run(GuestMemory &gm)
        {
            co_await gm.touchRun(0, 100);
        }
    };
    fx.sim.spawn(T::run(gm));
    fx.sim.run();
    EXPECT_EQ(gm.presentPages(), 100);
    gm.backLazyFile(mem_file);
    EXPECT_EQ(gm.presentPages(), 0);
}

/** A minimal record-mode monitor: serve each fault from the file. */
Task<void>
miniMonitor(Fixture &fx, GuestMemory &gm, UserFaultFd &uffd,
            storage::FileId mem_file, int expected_faults,
            std::vector<std::int64_t> *trace)
{
    for (int i = 0; i < expected_faults; ++i) {
        FaultEvent ev = co_await uffd.nextFault();
        trace->push_back(ev.page);
        co_await fx.fs.readBuffered(mem_file, bytesForPages(ev.page),
                                    bytesForPages(ev.runPages));
        co_await uffd.copyCost(ev.runPages, 0);
        gm.installRange(ev.page, ev.runPages);
        ev.done->openGate();
    }
}

TEST(Uffd, MonitorServesFaults)
{
    Fixture fx;
    auto mem_file = fx.fs.createFile("snap.mem", 1024 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 1024);
    UserFaultFd uffd(fx.sim);
    gm.backUffd(mem_file, &uffd);

    std::vector<std::int64_t> trace;
    fx.sim.spawn(miniMonitor(fx, gm, uffd, mem_file, 3, &trace));

    struct T {
        static Task<void>
        run(GuestMemory &gm)
        {
            co_await gm.touchRun(42, 2);
            co_await gm.touchRun(100, 3);
            co_await gm.touchRun(7, 1);
        }
    };
    fx.sim.spawn(T::run(gm));
    fx.sim.run();

    EXPECT_EQ(gm.presentPages(), 6);
    EXPECT_EQ((trace), (std::vector<std::int64_t>{42, 100, 7}));
    EXPECT_EQ(uffd.stats().faultsDelivered, 3);
    EXPECT_EQ(uffd.stats().pagesInstalled, 6);
    EXPECT_EQ(gm.stats().pagesInstalledByMonitor, 6);
}

TEST(Uffd, PartialInstallRefaults)
{
    // Monitor that installs only the first page of each request: the
    // faulting run must re-fault for the remainder and still complete.
    Fixture fx;
    auto mem_file = fx.fs.createFile("snap.mem", 256 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 256);
    UserFaultFd uffd(fx.sim);
    gm.backUffd(mem_file, &uffd);

    struct StingyMonitor {
        static Task<void>
        run(Fixture &fx, GuestMemory &gm, UserFaultFd &uffd,
            storage::FileId f, int faults)
        {
            for (int i = 0; i < faults; ++i) {
                FaultEvent ev = co_await uffd.nextFault();
                co_await fx.fs.readBuffered(f, bytesForPages(ev.page),
                                            kPageSize);
                co_await uffd.copyCost(1, 0);
                gm.installRange(ev.page, 1);
                ev.done->openGate();
            }
        }
    };
    struct T {
        static Task<void>
        run(GuestMemory &gm, bool &done)
        {
            co_await gm.touchRun(10, 4);
            done = true;
        }
    };
    bool done = false;
    fx.sim.spawn(StingyMonitor::run(fx, gm, uffd, mem_file, 4));
    fx.sim.spawn(T::run(gm, done));
    fx.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(gm.presentPages(), 4);
    EXPECT_EQ(uffd.stats().faultsDelivered, 4);
}

/**
 * Reference model of GuestMemory's presence tracking: a
 * std::vector<bool> walked page by page, with the same fault costs.
 * Run in a twin fixture, it gives the simulated time a touch sequence
 * must take as well as the expected counters.
 */
struct RefMemory {
    Fixture &fx;
    BackingMode mode;
    storage::FileId file;
    UserFaultFd *uffd;
    std::vector<bool> present;
    GuestMemoryStats counters;
    std::int64_t resident = 0;

    std::int64_t presentPages() const { return resident; }
    const GuestMemoryStats &stats() const { return counters; }

    void
    installRange(std::int64_t page, std::int64_t n)
    {
        for (std::int64_t p = page; p < page + n; ++p)
            counters.pagesInstalledByMonitor += mark(p);
    }

    int
    mark(std::int64_t p)
    {
        if (present[static_cast<size_t>(p)])
            return 0;
        present[static_cast<size_t>(p)] = true;
        ++resident;
        return 1;
    }

    Task<void>
    touchRun(std::int64_t page, std::int64_t n)
    {
        counters.pagesTouched += n;
        const std::int64_t end = page + n;
        for (std::int64_t p = page; p < end;) {
            const bool here = present[static_cast<size_t>(p)];
            std::int64_t q = p;
            while (q < end && present[static_cast<size_t>(q)] == here)
                ++q;
            if (here) {
                counters.minorFaults += q - p;
                co_await fx.sim.delay(static_cast<Duration>(100) *
                                      (q - p));
                p = q;
                continue;
            }
            ++counters.majorFaults;
            if (mode == BackingMode::Uffd) {
                co_await uffd->raiseAndWait(p, q - p);
                continue; // re-scan: the monitor may install fewer
            }
            if (mode == BackingMode::Anonymous)
                co_await fx.sim.delay(usec(1) * (q - p));
            else
                co_await fx.fs.faultRead(file, bytesForPages(p),
                                         bytesForPages(q - p));
            for (; p < q; ++p)
                mark(p);
        }
    }
};

/** Monitor installing a random non-empty prefix of each fault. */
template <typename Mem>
Task<void>
prefixMonitor(UserFaultFd &uffd, Mem &mem, Rng rng)
{
    for (;;) {
        FaultEvent ev = co_await uffd.nextFault();
        if (ev.page < 0)
            co_return;
        std::int64_t n = rng.uniformInt(1, ev.runPages);
        co_await uffd.copyCost(n, 0);
        mem.installRange(ev.page, n);
        ev.done->openGate();
    }
}

struct MemOp {
    bool install;
    std::int64_t page;
    std::int64_t pages;
};

/** What a memory looked like after each op of a sequence. */
struct MemStep {
    Time at;
    std::int64_t present, major, minor, touched, installed;

    bool operator==(const MemStep &) const = default;
};

template <typename Mem>
Task<void>
replayOps(Fixture &fx, Mem &mem, UserFaultFd *uffd,
          const std::vector<MemOp> &ops, std::vector<MemStep> &out)
{
    for (const MemOp &op : ops) {
        if (op.install)
            mem.installRange(op.page, op.pages);
        else
            co_await mem.touchRun(op.page, op.pages);
        const GuestMemoryStats &st = mem.stats();
        out.push_back({fx.sim.now(), mem.presentPages(), st.majorFaults,
                       st.minorFaults, st.pagesTouched,
                       st.pagesInstalledByMonitor});
    }
    if (uffd)
        uffd->sendShutdown();
}

/**
 * Property: random touchRun/installRange sequences over a memory whose
 * size is not a multiple of 64 pages give the same counters, resident
 * pages and simulated time after every op as the page-by-page
 * reference model, in all three backing modes.
 */
TEST(GuestMemory, MatchesPerPageReference)
{
    constexpr std::int64_t kPages = 300;
    Rng rng(7, "guest-memory-ops");
    for (BackingMode mode : {BackingMode::Anonymous, BackingMode::LazyFile,
                             BackingMode::Uffd}) {
        for (int iter = 0; iter < 25; ++iter) {
            std::vector<MemOp> ops;
            for (int i = 0; i < 40; ++i) {
                std::int64_t page = rng.uniformInt(0, kPages - 1);
                std::int64_t pages =
                    rng.uniformInt(1, std::min<std::int64_t>(
                                          kPages - page, 140));
                ops.push_back({rng.uniformInt(0, 3) == 0, page, pages});
            }
            std::vector<MemStep> got, want;
            const Rng monitor_rng(static_cast<std::uint64_t>(iter),
                                  "monitor");

            Fixture fx;
            auto file = fx.fs.createFile("snap.mem", kPages * kPageSize);
            GuestMemory gm(fx.sim, fx.fs, kPages);
            UserFaultFd uffd(fx.sim);
            if (mode == BackingMode::LazyFile)
                gm.backLazyFile(file);
            if (mode == BackingMode::Uffd) {
                gm.backUffd(file, &uffd);
                fx.sim.spawn(prefixMonitor(uffd, gm, monitor_rng));
            }
            fx.sim.spawn(replayOps(
                fx, gm, mode == BackingMode::Uffd ? &uffd : nullptr, ops,
                got));
            fx.sim.run();

            Fixture rfx;
            auto rfile = rfx.fs.createFile("snap.mem", kPages * kPageSize);
            UserFaultFd ruffd(rfx.sim);
            RefMemory ref{rfx, mode, rfile, &ruffd,
                          std::vector<bool>(kPages, false), {}, 0};
            if (mode == BackingMode::Uffd)
                rfx.sim.spawn(prefixMonitor(ruffd, ref, monitor_rng));
            rfx.sim.spawn(replayOps(
                rfx, ref, mode == BackingMode::Uffd ? &ruffd : nullptr,
                ops, want));
            rfx.sim.run();

            ASSERT_EQ(got.size(), ops.size());
            for (size_t i = 0; i < ops.size(); ++i)
                ASSERT_TRUE(got[i] == want[i])
                    << "mode " << static_cast<int>(mode) << " iter "
                    << iter << " op " << i;
            for (std::int64_t p = 0; p < kPages; ++p)
                ASSERT_EQ(gm.isPresent(p),
                          ref.present[static_cast<size_t>(p)]) << p;
        }
    }
}

TEST(Uffd, CopyCostBatches)
{
    Simulation sim;
    UserFaultFd uffd(sim);
    struct T {
        static Task<void>
        run(Simulation &sim, UserFaultFd &uffd, Duration &batched,
            Duration &singles)
        {
            Time t0 = sim.now();
            co_await uffd.copyCost(2048, 0); // one big call
            batched = sim.now() - t0;
            t0 = sim.now();
            co_await uffd.copyCost(2048, 1); // page-at-a-time
            singles = sim.now() - t0;
        }
    };
    Duration batched = 0, singles = 0;
    sim.spawn(T::run(sim, uffd, batched, singles));
    sim.run();
    EXPECT_LT(batched, singles);
    EXPECT_EQ(uffd.stats().copyCalls, 1 + 2048);
    EXPECT_EQ(uffd.stats().pagesInstalled, 2 * 2048);
}

// ------------------------------------------------ pipeline properties

/**
 * A three-tier fallback chain over one WS-like file and a remote
 * store, mirroring what TieredLoader builds: page cache (gated on
 * cache residency), local SSD (gated on @p localValid), remote
 * backstop. Admission lands remote bytes in the file's cache pages.
 */
struct TieredFixture {
    Fixture fx;
    net::ObjectStore store{fx.sim,
                           net::ObjectStoreParams::remote()};
    storage::FileId file;
    bool localValid = false;
    mem::TieredPageSource tiered{fx.sim};

    explicit TieredFixture(Bytes bytes = 8 * kMiB)
    {
        file = fx.fs.createFile("ws", bytes);
        storage::FileStore *fs = &fx.fs;
        storage::FileId f = file;
        bool *valid = &localValid;
        tiered.addTier(mem::TieredPageSource::Tier{
            "page-cache",
            std::make_unique<mem::BufferedFileSource>(*fs, f),
            [fs, f](Bytes off, Bytes len) {
                return fs->isCached(f, off, len);
            },
            nullptr});
        tiered.addTier(mem::TieredPageSource::Tier{
            "local-ssd",
            std::make_unique<mem::DirectFileSource>(*fs, f),
            [valid](Bytes, Bytes) { return *valid; },
            [fs, f](Bytes off, Bytes len) {
                return fs->writeBuffered(f, off, len);
            }});
        tiered.addTier(mem::TieredPageSource::Tier{
            "remote",
            std::make_unique<mem::RemoteObjectSource>(store),
            nullptr, nullptr});
    }
};

/** Sum of per-tier served bytes. */
Bytes
tierBytes(const std::vector<mem::TierStats> &tiers)
{
    Bytes total = 0;
    for (const auto &t : tiers)
        total += t.bytes;
    return total;
}

/** Sum of per-tier hits (= reads served by the chain). */
std::int64_t
tierHits(const std::vector<mem::TierStats> &tiers)
{
    std::int64_t total = 0;
    for (const auto &t : tiers)
        total += t.hits;
    return total;
}

TEST(PageFetchPipeline, WindowedMovesIdenticalBytesToContiguous)
{
    // Property: for ANY (windowBytes, inFlight) split — divisible or
    // not, over- or under-subscribed — fetchWindowed moves exactly the
    // bytes fetchContiguous moves.
    const Bytes len = 3 * kMiB + 12 * kKiB;
    const Bytes windows[] = {kPageSize,       64 * kKiB,
                             100 * kKiB,      kMiB,
                             2 * kMiB,        len,
                             4 * len,         0};
    const int inflight[] = {1, 2, 3, 8, 64};

    Fixture ref;
    auto ref_file = ref.fs.createFile("ws", len);
    mem::BufferedFileSource ref_src(ref.fs, ref_file);
    mem::PageFetchPipeline ref_pipe(ref.sim, ref_src);
    struct Contig {
        static Task<void>
        run(mem::PageFetchPipeline &p, Bytes len)
        {
            co_await p.fetchContiguous(0, len);
        }
    };
    ref.sim.spawn(Contig::run(ref_pipe, len));
    ref.sim.run();
    ASSERT_EQ(ref_pipe.stats().bytesFetched, len);

    for (Bytes w : windows) {
        for (int n : inflight) {
            Fixture fx;
            auto file = fx.fs.createFile("ws", len);
            mem::BufferedFileSource src(fx.fs, file);
            mem::PageFetchPipeline pipe(fx.sim, src);
            struct Windowed {
                static Task<void>
                run(mem::PageFetchPipeline &p, Bytes len, Bytes w,
                    int n)
                {
                    co_await p.fetchWindowed(0, len, w, n);
                }
            };
            fx.sim.spawn(Windowed::run(pipe, len, w, n));
            fx.sim.run();
            EXPECT_EQ(pipe.stats().bytesFetched,
                      ref_pipe.stats().bytesFetched)
                << "window=" << w << " inFlight=" << n;
            // The device moved every byte exactly once, too.
            EXPECT_EQ(fx.ssd.stats().bytesRead,
                      ref.ssd.stats().bytesRead)
                << "window=" << w << " inFlight=" << n;
        }
    }
}

TEST(PageFetchPipeline, WindowedZeroLengthIsNoOpFetch)
{
    // A zero-length range degenerates to one contiguous fetch of zero
    // bytes for every window size (fixed, covering, adaptive): no
    // windows issued, no bytes moved, and the pipeline still accounts
    // the call.
    const Bytes windows[] = {kPageSize, kMiB, 0};
    for (Bytes w : windows) {
        Simulation sim;
        net::ObjectStore store(sim, net::ObjectStoreParams::remote());
        RemoteObjectSource src(store);
        PageFetchPipeline pipe(sim, src);
        struct T {
            static Task<void>
            run(PageFetchPipeline &p, Bytes w)
            {
                co_await p.fetchWindowed(0, 0, w, 4);
            }
        };
        sim.spawn(T::run(pipe, w));
        sim.run();
        EXPECT_EQ(pipe.stats().bytesFetched, 0) << "window=" << w;
        EXPECT_EQ(pipe.stats().contiguousFetches, 1) << "window=" << w;
        EXPECT_EQ(pipe.stats().windowedFetches, 0) << "window=" << w;
        EXPECT_EQ(pipe.stats().windowsIssued, 0) << "window=" << w;
        EXPECT_EQ(store.stats().bytesServed, 0) << "window=" << w;
    }
}

TEST(PageFetchPipeline, WindowLargerThanArtifactIsContiguous)
{
    // A window covering (or exceeding) the whole artifact must
    // degenerate to the contiguous shape: one request, no windowed
    // accounting.
    const Bytes len = 2 * kMiB + 3 * kKiB;
    for (Bytes w : {len, len + 1, 100 * len}) {
        Simulation sim;
        net::ObjectStore store(sim, net::ObjectStoreParams::remote());
        RemoteObjectSource src(store);
        PageFetchPipeline pipe(sim, src);
        struct T {
            static Task<void>
            run(PageFetchPipeline &p, Bytes len, Bytes w)
            {
                co_await p.fetchWindowed(0, len, w, 8);
            }
        };
        sim.spawn(T::run(pipe, len, w));
        sim.run();
        EXPECT_EQ(pipe.stats().contiguousFetches, 1) << "window=" << w;
        EXPECT_EQ(pipe.stats().windowedFetches, 0) << "window=" << w;
        EXPECT_EQ(pipe.stats().windowsIssued, 0) << "window=" << w;
        EXPECT_EQ(pipe.stats().bytesFetched, len) << "window=" << w;
        EXPECT_EQ(store.stats().gets, 1) << "window=" << w;
        EXPECT_EQ(store.stats().bytesServed, len) << "window=" << w;
    }
}

TEST(PageFetchPipeline, AdaptiveFetchCompletesUnderStoreErrors)
{
    // The AIMD-sized adaptive fetch over a store injecting mid-stream
    // request errors: errors inflate observed per-GET times (which the
    // controller may read as congestion), but the fetch must still
    // move every byte exactly once and converge inside the configured
    // window bounds.
    Simulation sim;
    net::ObjectStore store(sim, net::ObjectStoreParams::remote());
    sim::FaultPlan plan(17);
    sim::FaultSpec err;
    err.kind = sim::FaultKind::RequestError;
    err.target = "store";
    err.windows.push_back(sim::FaultWindow{0, sec(600), 1.0, 0.4});
    plan.add(err);
    store.setFaultPlan(&plan, "store");

    const Bytes len = 24 * kMiB + 5 * kKiB;
    RemoteObjectSource src(store);
    PageFetchPipeline pipe(sim, src);
    struct T {
        static Task<void>
        run(PageFetchPipeline &p, Bytes len)
        {
            co_await p.fetchWindowed(0, len, 0, 4); // adaptive
        }
    };
    sim.spawn(T::run(pipe, len));
    sim.run();

    EXPECT_EQ(pipe.stats().adaptiveFetches, 1);
    EXPECT_EQ(pipe.stats().bytesFetched, len);
    EXPECT_EQ(store.stats().bytesServed, len);
    EXPECT_GT(plan.stats().requestErrors, 0);
    EXPECT_EQ(store.stats().requestRetries, plan.stats().requestErrors);
    const auto &ap = pipe.adaptiveParams();
    EXPECT_GE(pipe.stats().convergedWindowBytes, ap.minWindow);
    EXPECT_LE(pipe.stats().convergedWindowBytes, ap.maxWindow);
    EXPECT_GT(pipe.stats().windowsIssued, 1);
}

TEST(PageFetchPipeline, TieredAccountingInvariants)
{
    // Properties over a fetch history that exercises all three tiers:
    //  - bytesFetched == sum of per-tier served bytes
    //  - every read is served by exactly one tier (sum hits == reads)
    //  - per-tier probes chain: hits[0]+misses[0] == reads, and
    //    hits[i]+misses[i] == misses[i-1] below the top.
    const Bytes len = 4 * kMiB;
    TieredFixture tf(len);
    mem::PageFetchPipeline pipe(tf.fx.sim, tf.tiered);
    struct T {
        static Task<void>
        run(TieredFixture &tf, mem::PageFetchPipeline &p, Bytes len)
        {
            // Pass 1: nothing local — remote serves, admission fills
            // the cache.
            co_await p.fetchWindowed(0, len, 512 * kKiB, 4);
            // Pass 2: cache serves.
            co_await p.fetchWindowed(0, len, 512 * kKiB, 4);
            // Pass 3: flushed cache + valid local copy — SSD serves.
            tf.localValid = true;
            tf.fx.fs.dropFileCaches(tf.file);
            co_await p.fetchWindowed(0, len, kMiB, 2);
            // Pass 4: a contiguous fetch through the same chain.
            tf.fx.fs.dropFileCaches(tf.file);
            co_await p.fetchContiguous(0, len);
        }
    };
    tf.fx.sim.spawn(T::run(tf, pipe, len));
    tf.fx.sim.run();

    const auto &st = pipe.stats();
    ASSERT_EQ(st.tiers.size(), 3u);
    const auto &cache = st.tiers[0];
    const auto &ssd = st.tiers[1];
    const auto &remote = st.tiers[2];

    // 8 + 8 + 4 + 1 windows entered the chain.
    std::int64_t reads = tierHits(st.tiers);
    EXPECT_EQ(reads, 21);
    EXPECT_EQ(st.bytesFetched, tierBytes(st.tiers));
    EXPECT_EQ(cache.hits + cache.misses, reads);
    EXPECT_EQ(ssd.hits + ssd.misses, cache.misses);
    EXPECT_EQ(remote.hits + remote.misses, ssd.misses);
    EXPECT_EQ(remote.misses, 0); // the backstop never declines
    // Every tier served something in this history.
    EXPECT_GT(cache.hits, 0);
    EXPECT_GT(ssd.hits, 0);
    EXPECT_GT(remote.hits, 0);
    // Admission mirrored exactly the remote-served ranges.
    EXPECT_EQ(ssd.admissions, remote.hits);
    EXPECT_EQ(ssd.bytesAdmitted, remote.bytes);
}

TEST(PageFetchPipeline, TieredAdmissionPopulatesUpperTiers)
{
    const Bytes len = 2 * kMiB;
    TieredFixture tf(len);
    mem::PageFetchPipeline pipe(tf.fx.sim, tf.tiered);
    std::int64_t gets_after_first = 0;
    struct T {
        static Task<void>
        run(TieredFixture &tf, mem::PageFetchPipeline &p, Bytes len,
            std::int64_t &gets_after_first)
        {
            co_await p.fetchWindowed(0, len, 256 * kKiB, 8);
            gets_after_first = tf.store.stats().gets;
            co_await p.fetchWindowed(0, len, 256 * kKiB, 8);
        }
    };
    tf.fx.sim.spawn(T::run(tf, pipe, len, gets_after_first));
    tf.fx.sim.run();
    EXPECT_EQ(gets_after_first, 8);
    // The second pass was served entirely above the remote tier.
    EXPECT_EQ(tf.store.stats().gets, gets_after_first);
    EXPECT_EQ(pipe.stats().tiers[0].hits, 8);
    // And the chain still moved every byte of both passes.
    EXPECT_EQ(pipe.stats().bytesFetched, 2 * len);
}

TEST(Uffd, FaultLatencyAccountsTrapAndWake)
{
    // With an instant monitor, the fault round trip still costs the
    // trap, monitor wake, and target wake.
    Fixture fx;
    auto mem_file = fx.fs.createFile("m", 64 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 64);
    UserFaultFd uffd(fx.sim);
    gm.backUffd(mem_file, &uffd);
    struct InstantMonitor {
        static Task<void>
        run(GuestMemory &gm, UserFaultFd &uffd)
        {
            FaultEvent ev = co_await uffd.nextFault();
            gm.installRange(ev.page, ev.runPages);
            ev.done->openGate();
        }
    };
    struct T {
        static Task<void>
        run(Simulation &sim, GuestMemory &gm, Duration &out)
        {
            Time t0 = sim.now();
            co_await gm.touchRun(0, 1);
            out = sim.now() - t0;
        }
    };
    Duration took = 0;
    fx.sim.spawn(InstantMonitor::run(gm, uffd));
    fx.sim.spawn(T::run(fx.sim, gm, took));
    fx.sim.run();
    const auto &p = uffd.params();
    // + 100 ns: the re-scan touches the freshly installed page.
    EXPECT_EQ(took, p.faultTrap + p.monitorWake + p.wakeTarget + 100);
}

/** Instant monitor serving a fixed number of single-page faults. */
Task<void>
instantMonitor(GuestMemory &gm, UserFaultFd &uffd, int expected_faults)
{
    for (int i = 0; i < expected_faults; ++i) {
        FaultEvent ev = co_await uffd.nextFault();
        gm.installRange(ev.page, ev.runPages);
        ev.done->openGate();
    }
}

Task<void>
touchOne(Simulation &sim, GuestMemory &gm, std::int64_t page,
         Duration start_at, Duration &took)
{
    co_await sim.delay(start_at);
    Time t0 = sim.now();
    co_await gm.touchRun(page, 1);
    took = sim.now() - t0;
}

TEST(Uffd, SameInstantBurstCoalescesTrapsLatencyUnchanged)
{
    // Five guest threads fault at the same instant. The leader's trap
    // completion delivers the whole burst, so the kernel pays one trap
    // event instead of five — but every fault's simulated latency must
    // be exactly what five independent traps would have produced:
    // same maturity instant, same FIFO channel order, same serialized
    // monitor wakes (this is the Fig. 7 breakdown invariant).
    constexpr int kFaults = 5;
    Fixture fx;
    auto mem_file = fx.fs.createFile("m", 64 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 64);
    UserFaultFd uffd(fx.sim);
    gm.backUffd(mem_file, &uffd);

    fx.sim.spawn(instantMonitor(gm, uffd, kFaults));
    Duration took[kFaults] = {};
    for (int i = 0; i < kFaults; ++i)
        fx.sim.spawn(touchOne(fx.sim, gm, 8 * i, 0, took[i]));
    fx.sim.run();

    const auto &p = uffd.params();
    for (int i = 0; i < kFaults; ++i) {
        // Fault i is served after i+1 serialized monitor wakes; the
        // trailing 100 ns is the re-scan of the installed page.
        EXPECT_EQ(took[i], p.faultTrap + (i + 1) * p.monitorWake +
                               p.wakeTarget + 100)
            << "fault " << i;
    }
    EXPECT_EQ(uffd.stats().faultsDelivered, kFaults);
    EXPECT_EQ(uffd.stats().trapBatches, 1);
    EXPECT_EQ(uffd.stats().faultsCoalesced, kFaults - 1);
}

TEST(Uffd, StaggeredBurstMaturesFollowersOnTime)
{
    // A follower fault raised while the leader's trap is in flight but
    // maturing later must not be delivered early: the dispatcher wakes
    // at the follower's own maturity instant (raise + faultTrap), so
    // its latency matches an independent trap to the nanosecond.
    Fixture fx;
    auto mem_file = fx.fs.createFile("m", 64 * kPageSize);
    GuestMemory gm(fx.sim, fx.fs, 64);
    UserFaultFd uffd(fx.sim);
    gm.backUffd(mem_file, &uffd);

    const Duration stagger = usec(10); // < faultTrap: overlaps leader
    fx.sim.spawn(instantMonitor(gm, uffd, 2));
    Duration tookA = 0, tookB = 0;
    fx.sim.spawn(touchOne(fx.sim, gm, 0, 0, tookA));
    fx.sim.spawn(touchOne(fx.sim, gm, 8, stagger, tookB));
    fx.sim.run();

    const auto &p = uffd.params();
    ASSERT_LT(stagger, p.faultTrap);
    EXPECT_EQ(tookA, p.faultTrap + p.monitorWake + p.wakeTarget + 100);
    // B matures at stagger + faultTrap (dispatcher wake, not early
    // delivery with A), then waits for the monitor to finish A: the
    // monitor frees up at faultTrap + monitorWake, serves B for
    // another monitorWake, and B's own clock started at stagger.
    EXPECT_EQ(tookB, p.faultTrap + 2 * p.monitorWake + p.wakeTarget +
                         100 - stagger);
    EXPECT_EQ(uffd.stats().trapBatches, 2);
    EXPECT_EQ(uffd.stats().faultsCoalesced, 1);
}

} // namespace
} // namespace vhive::mem

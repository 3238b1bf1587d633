/**
 * @file
 * Property-based suites (parameterized gtest) asserting the paper's
 * qualitative claims hold for EVERY function in the suite and across
 * seeds — the invariants a REAP deployment relies on:
 *
 *  P1  REAP prefetch is never slower than the vanilla baseline.
 *  P2  REAP eliminates the majority of page faults.
 *  P3  Residual faults track the unique/drift page fraction.
 *  P4  Restored footprint ~= working set, always << boot footprint.
 *  P5  Record-phase overhead stays within a sane envelope.
 *  P6  Warm invocations approximate the profile's warm time.
 *  P7  Traces are bit-deterministic; different inputs share the
 *      stable pool.
 *  P8  The WS-file/trace-file pair round-trips through the codec.
 *  P9  The DES kernel drains random schedule() interleavings in exact
 *      (when, seq) FIFO order through the two-level event queue.
 *  P10 The two-level queue (now-ring / future heap) pops in exactly
 *      the order a flat reference heap does, for random schedules
 *      spanning nanoseconds to seconds.
 *  P11 Class profile generators stay inside their declared envelope
 *      for every (seed, index), are bit-deterministic, and Generic
 *      cycles the FunctionBench pool unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/options.hh"
#include "core/orchestrator.hh"
#include "core/worker.hh"
#include "core/ws_file.hh"
#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::core {
namespace {

using sim::Simulation;
using sim::Task;

template <typename Fn>
void
runScenario(Simulation &sim, Fn &&body)
{
    struct Runner {
        static Task<void>
        run(Fn &body)
        {
            co_await body();
        }
    };
    sim.spawn(Runner::run(body));
    sim.run();
}

/** Everything one cold-start experiment produces, for one function. */
struct Outcome {
    LatencyBreakdown vanilla;
    LatencyBreakdown record;
    LatencyBreakdown reap;
    LatencyBreakdown warm;
    Bytes restoredFootprint = 0;
    std::int64_t recordedPages = 0;
};

Outcome
runFunction(const std::string &name, std::uint64_t seed)
{
    Simulation sim;
    WorkerConfig cfg;
    cfg.seed = seed;
    Worker w(sim, cfg);
    Outcome out;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName(name));
        co_await orch.prepareSnapshot(name);

        InvokeOptions cold;
        cold.flushPageCache = true;
        cold.forceCold = true;

        out.vanilla = co_await orch.invoke(
            name, ColdStartMode::VanillaSnapshot, cold);
        out.record =
            co_await orch.invoke(name, ColdStartMode::Reap, cold);
        out.recordedPages = orch.record(name).pageCount();

        InvokeOptions keep = cold;
        keep.keepWarm = true;
        out.reap =
            co_await orch.invoke(name, ColdStartMode::Reap, keep);
        out.restoredFootprint = orch.instanceFootprints(name)[0];
        out.warm = co_await orch.invoke(name, ColdStartMode::Reap);
        co_await orch.stopAllInstances(name);
    });
    return out;
}

class PerFunction : public ::testing::TestWithParam<const char *>
{
  protected:
    const func::FunctionProfile &
    profile() const
    {
        return func::profileByName(GetParam());
    }
};

TEST_P(PerFunction, ReapNeverSlowerThanVanilla)
{
    Outcome o = runFunction(GetParam(), 0xabc);
    EXPECT_LT(o.reap.total, o.vanilla.total) << GetParam();
}

TEST_P(PerFunction, ReapEliminatesMajorityOfFaults)
{
    Outcome o = runFunction(GetParam(), 0xabc);
    // Residual faults are a strict minority of the recorded set.
    EXPECT_LT(o.reap.residualFaults, o.recordedPages / 2)
        << GetParam();
    // For stable functions (low unique/drift), elimination is ~97%+.
    const auto &p = profile();
    if (p.uniqueFrac < 0.05 && p.stableDriftFrac == 0.0) {
        EXPECT_LT(o.reap.residualFaults, o.recordedPages / 20)
            << GetParam();
    }
}

TEST_P(PerFunction, ResidualsTrackUniqueFraction)
{
    Outcome o = runFunction(GetParam(), 0xabc);
    const auto &p = profile();
    double expected_frac =
        p.uniqueFrac + (1.0 - p.uniqueFrac) * p.stableDriftFrac;
    double resid_pages =
        static_cast<double>(o.reap.majorFaults > 0
                                ? o.reap.residualFaults
                                : 0);
    // Residual FAULTS (run-granular) must not exceed the expected
    // unique PAGES; and unless the function is fully stable they
    // should be nonzero.
    EXPECT_LE(resid_pages,
              expected_frac * static_cast<double>(p.wsPages()) * 1.2)
        << GetParam();
    if (expected_frac > 0.01) {
        EXPECT_GT(o.reap.residualFaults, 0) << GetParam();
    }
}

TEST_P(PerFunction, RestoredFootprintTracksWorkingSet)
{
    Outcome o = runFunction(GetParam(), 0xabc);
    const auto &p = profile();
    double fp = toMiB(o.restoredFootprint);
    double ws = toMiB(p.workingSet);
    EXPECT_GT(fp, ws * 0.85) << GetParam();
    // A REAP instance holds the prefetched (record) set plus this
    // invocation's own unique pages.
    EXPECT_LT(fp, ws * 1.35 + 4.0) << GetParam();
    EXPECT_LT(fp, toMiB(p.bootFootprint) * 0.65) << GetParam();
}

TEST_P(PerFunction, RecordOverheadWithinEnvelope)
{
    Outcome o = runFunction(GetParam(), 0xabc);
    double overhead = static_cast<double>(o.record.total) /
                          static_cast<double>(o.vanilla.total) -
                      1.0;
    EXPECT_GT(overhead, 0.0) << GetParam();
    EXPECT_LT(overhead, 0.95) << GetParam(); // paper: 15-87%
}

TEST_P(PerFunction, WarmApproximatesProfileWarmTime)
{
    Outcome o = runFunction(GetParam(), 0xabc);
    const auto &p = profile();
    // Warm total = warm exec + wire costs + input fetch; allow slack.
    Duration slack = msec(3);
    if (p.inputSize > 0)
        slack += sec(static_cast<double>(p.inputSize) / 150e6);
    EXPECT_GE(o.warm.total, p.warmExec) << GetParam();
    EXPECT_LE(o.warm.total, p.warmExec + slack) << GetParam();
}

TEST_P(PerFunction, BreakdownSumsToTotal)
{
    Outcome o = runFunction(GetParam(), 0xabc);
    for (const LatencyBreakdown *bd :
         {&o.vanilla, &o.record, &o.reap}) {
        Duration parts = bd->loadVmm + bd->connRestore +
                         bd->processing + bd->fetchWs + bd->installWs;
        EXPECT_LE(parts, bd->total + msec(1)) << GetParam();
        // Components cover at least 90% of the end-to-end time (the
        // rest is control-plane handling).
        EXPECT_GT(static_cast<double>(parts),
                  0.90 * static_cast<double>(bd->total))
            << GetParam();
    }
}

TEST_P(PerFunction, TraceCodecRoundTripsRecordedSet)
{
    Simulation sim;
    Worker w(sim);
    WorkingSetRecord rec;
    runScenario(sim, [&]() -> Task<void> {
        auto &orch = w.orchestrator();
        orch.registerFunction(profile());
        co_await orch.prepareSnapshot(GetParam());
        orch.flushHostCaches();
        (void)co_await orch.invoke(GetParam(), ColdStartMode::Reap);
        rec = orch.record(GetParam());
    });
    ASSERT_GT(rec.pageCount(), 0);
    auto bytes = TraceFileCodec::encode(rec);
    auto decoded = TraceFileCodec::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->pages, rec.pages);
    // Delta-varint encoding stays well under 8 bytes/page.
    EXPECT_LT(static_cast<double>(bytes.size()),
              8.0 * static_cast<double>(rec.pageCount()));
}

TEST_P(PerFunction, DeterministicAcrossRuns)
{
    Outcome a = runFunction(GetParam(), 0x77);
    Outcome b = runFunction(GetParam(), 0x77);
    EXPECT_EQ(a.vanilla.total, b.vanilla.total);
    EXPECT_EQ(a.reap.total, b.reap.total);
    EXPECT_EQ(a.reap.residualFaults, b.reap.residualFaults);
    EXPECT_EQ(a.recordedPages, b.recordedPages);
}

INSTANTIATE_TEST_SUITE_P(
    FunctionBench, PerFunction,
    ::testing::Values("helloworld", "chameleon", "pyaes",
                      "image_rotate", "json_serdes", "lr_serving",
                      "cnn_serving", "rnn_serving", "lr_training",
                      "video_processing"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

/** Trace-generator invariants across seeds (property sweep). */
class TraceSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceSeeds, StablePoolIdenticalAcrossInputs)
{
    func::TraceGenerator gen(GetParam());
    for (const auto &p : func::functionBench()) {
        if (p.stableDriftFrac > 0)
            continue; // drift intentionally breaks this
        auto a = gen.invocation(p, 10);
        auto b = gen.invocation(p, 11);
        // Stable pages of a must all appear in b's page set.
        auto pb = b.touchedPages();
        std::int64_t missing = 0;
        for (const auto &r : a.runs) {
            if (!r.stable)
                continue;
            for (std::int64_t pg = r.page; pg < r.page + r.pages;
                 ++pg) {
                if (!std::binary_search(pb.begin(), pb.end(), pg))
                    ++missing;
            }
        }
        EXPECT_EQ(missing, 0) << p.name << " seed " << GetParam();
    }
}

TEST_P(TraceSeeds, PageAccountingConsistent)
{
    func::TraceGenerator gen(GetParam());
    for (const auto &p : func::functionBench()) {
        auto t = gen.invocation(p, 3);
        std::int64_t run_pages = 0;
        for (const auto &r : t.runs)
            run_pages += r.pages;
        EXPECT_EQ(run_pages, t.totalPages()) << p.name;
        EXPECT_EQ(t.totalPages(), p.wsPages()) << p.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSeeds,
                         ::testing::Values(1ull, 42ull, 0xdeadbeefull,
                                           0x123456789abcdefull));

/**
 * P9: kernel event-queue ordering. Parks coroutines on a capture-the-
 * handle awaitable, then drives Simulation::schedule directly with
 * randomly shuffled, heavily colliding timestamps — mixing the
 * now-ring and future-heap paths of the two-level queue — and checks
 * the drain order is exactly (when, seq): time-sorted, FIFO within a
 * timestamp.
 */
class KernelQueue : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    struct Hook {
        std::coroutine_handle<> handle;
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h) noexcept
        {
            handle = h;
        }
        void await_resume() const noexcept {}
    };

    static Task<void>
    parked(Simulation &sim, Hook &hook,
           std::vector<std::pair<Time, int>> &log, int id)
    {
        co_await hook;
        log.emplace_back(sim.now(), id);
    }
};

TEST_P(KernelQueue, RandomInterleavingsDrainInWhenSeqFifoOrder)
{
    Rng rng(GetParam());
    Simulation sim;
    const int n = 256;
    std::vector<Hook> hooks(n);
    std::vector<std::pair<Time, int>> log;
    std::vector<Task<void>> tasks;
    tasks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        tasks.push_back(parked(sim, hooks[i], log, i));
    for (auto &t : tasks)
        t.start(sim);
    sim.run(); // every task parks on its hook
    ASSERT_TRUE(log.empty());

    // Shuffle who gets scheduled when; ~6 distinct timestamps for 256
    // events forces long same-timestamp FIFO chains, and offset 0
    // lands in the now-ring while the rest go through the heap.
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(n, [&](std::int64_t i, std::int64_t j) {
        std::swap(order[static_cast<std::size_t>(i)],
                  order[static_cast<std::size_t>(j)]);
    });

    std::vector<std::pair<Time, int>> expected;
    for (int id : order) {
        Time when = sim.now() + usec(rng.uniformInt(0, 5));
        sim.schedule(hooks[static_cast<std::size_t>(id)].handle, when);
        expected.emplace_back(when, id);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    sim.run();
    EXPECT_EQ(log, expected);
}

TEST_P(KernelQueue, RunUntilHonorsWhenSeqOrderAcrossResumes)
{
    // Same setup, but drained in runUntil slices whose boundaries land
    // exactly on event timestamps; slicing must not reorder anything.
    Rng rng(GetParam() ^ 0x5eedull);
    Simulation sim;
    const int n = 128;
    std::vector<Hook> hooks(n);
    std::vector<std::pair<Time, int>> log;
    std::vector<Task<void>> tasks;
    tasks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        tasks.push_back(parked(sim, hooks[i], log, i));
    for (auto &t : tasks)
        t.start(sim);
    sim.run();

    const Time base = sim.now();
    std::vector<std::pair<Time, int>> expected;
    for (int id = 0; id < n; ++id) {
        Time when = base + usec(rng.uniformInt(0, 3));
        sim.schedule(hooks[static_cast<std::size_t>(id)].handle, when);
        expected.emplace_back(when, id);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    for (Time cut = base; cut <= base + usec(3); cut += usec(1))
        sim.runUntil(cut);
    sim.run();
    EXPECT_EQ(log, expected);
}

TEST_P(KernelQueue, WheelMatchesReferenceHeapUnderRandomSchedules)
{
    // P10: drive sim::KernelQueue directly (null handles; pop never
    // resumes) against a flat (when, seq) min-heap. Deltas range from
    // 0 (now-ring) through microseconds and milliseconds to seconds
    // (future heap), plus exact multiples of 2^14 ns that stack many
    // events on one timestamp, interleaved with drains that advance
    // the clock.
    Rng rng(GetParam() ^ 0x3e17ull);
    sim::KernelQueue q;
    using Ref = std::pair<Time, std::uint64_t>;
    std::vector<Ref> ref;
    auto later = [](const Ref &a, const Ref &b) { return a > b; };

    Time now = 0;
    std::uint64_t seq = 0;
    auto pushOne = [&](Duration d) {
        q.push(now + d, seq, {}, now);
        ref.emplace_back(now + d, seq);
        std::push_heap(ref.begin(), ref.end(), later);
        ++seq;
    };
    auto popOne = [&] {
        ASSERT_EQ(q.nextWhen(), ref.front().first);
        sim::Event ev = q.pop();
        std::pop_heap(ref.begin(), ref.end(), later);
        Ref want = ref.back();
        ref.pop_back();
        ASSERT_EQ(ev.when, want.first);
        ASSERT_EQ(ev.seq, want.second);
        ASSERT_GE(ev.when, now);
        now = ev.when;
    };

    for (int round = 0; round < 1500; ++round) {
        std::int64_t burst = rng.uniformInt(1, 8);
        for (std::int64_t i = 0; i < burst; ++i) {
            Duration d = 0;
            switch (rng.uniformInt(0, 4)) {
            case 0:
                break; // now-ring
            case 1:
                d = rng.uniformInt(1, usec(16)); // microseconds
                break;
            case 2:
                d = rng.uniformInt(1, msec(60)); // milliseconds
                break;
            case 3:
                d = rng.uniformInt(1, sec(5)); // seconds
                break;
            default:
                // Coarse multiples collide on equal timestamps.
                d = rng.uniformInt(0, 100) * Duration{1 << 14};
                break;
            }
            pushOne(d);
        }
        std::int64_t drains = rng.uniformInt(0, 10);
        while (drains-- > 0 && !q.empty())
            popOne();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    while (!q.empty())
        popOne();
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(q.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelQueue,
                         ::testing::Values(1ull, 7ull, 99ull,
                                           0xfeedfaceull));

// --------------------------------------- P11: class profile envelopes

TEST(FunctionClasses, ProfilesStayInsideDeclaredEnvelope)
{
    const func::FunctionClass classes[] = {
        func::FunctionClass::MlInference, func::FunctionClass::Media,
        func::FunctionClass::Etl};
    const std::uint64_t seeds[] = {1, 7, 42, 0xa27e, 0xfeedface};
    for (auto cls : classes) {
        const auto &env = func::classEnvelope(cls);
        for (auto seed : seeds) {
            for (int idx = 0; idx < 32; ++idx) {
                SCOPED_TRACE(std::string(func::functionClassName(cls)) +
                             " seed=" + std::to_string(seed) +
                             " idx=" + std::to_string(idx));
                auto p = func::makeClassProfile(cls, seed, idx);
                EXPECT_EQ(p.cls, cls);
                EXPECT_GE(p.workingSet, env.minWorkingSet);
                EXPECT_LE(p.workingSet, env.maxWorkingSet);
                EXPECT_GE(p.uniqueFrac, env.minUniqueFrac);
                EXPECT_LE(p.uniqueFrac, env.maxUniqueFrac);
                EXPECT_GE(p.contiguityMean, env.minContiguity);
                EXPECT_LE(p.contiguityMean, env.maxContiguity);
                EXPECT_GE(p.inputSize, env.minInput);
                EXPECT_LE(p.inputSize, env.maxInput);
                EXPECT_GE(p.warmExec, msec(env.minWarmMs));
                EXPECT_LE(p.warmExec, msec(env.maxWarmMs));
                EXPECT_GE(p.initTime, msec(env.minInitMs));
                EXPECT_LE(p.initTime, msec(env.maxInitMs));
                EXPECT_GE(p.bootFootprint, env.minBootFootprint);
                EXPECT_LE(p.bootFootprint, env.maxBootFootprint);
                // The generated VM is self-consistent: the working
                // set and boot footprint fit into guest memory.
                EXPECT_LE(p.workingSet, p.vmMemory);
                EXPECT_LE(p.bootFootprint, p.vmMemory);
            }
        }
    }
}

TEST(FunctionClasses, GenerationIsDeterministicAndSeedSensitive)
{
    for (auto cls : {func::FunctionClass::MlInference,
                     func::FunctionClass::Media,
                     func::FunctionClass::Etl}) {
        SCOPED_TRACE(func::functionClassName(cls));
        auto a = func::makeClassProfile(cls, 42, 3);
        auto b = func::makeClassProfile(cls, 42, 3);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.warmExec, b.warmExec);
        EXPECT_EQ(a.workingSet, b.workingSet);
        EXPECT_EQ(a.uniqueFrac, b.uniqueFrac);
        EXPECT_EQ(a.contiguityMean, b.contiguityMean);
        EXPECT_EQ(a.inputSize, b.inputSize);
        EXPECT_EQ(a.initTime, b.initTime);
        EXPECT_EQ(a.bootFootprint, b.bootFootprint);
        // A different seed or index perturbs the draws (the streams
        // are named by class/index with the seed as the key).
        auto c = func::makeClassProfile(cls, 43, 3);
        auto d = func::makeClassProfile(cls, 42, 4);
        EXPECT_TRUE(a.workingSet != c.workingSet ||
                    a.warmExec != c.warmExec ||
                    a.uniqueFrac != c.uniqueFrac);
        EXPECT_TRUE(a.workingSet != d.workingSet ||
                    a.warmExec != d.warmExec ||
                    a.uniqueFrac != d.uniqueFrac);
    }
}

TEST(FunctionClasses, GenericCyclesFunctionBenchPoolUnchanged)
{
    const auto &pool = func::functionBench();
    ASSERT_FALSE(pool.empty());
    for (int idx = 0; idx < 2 * static_cast<int>(pool.size()); ++idx) {
        const auto &expect =
            pool[static_cast<size_t>(idx) % pool.size()];
        // Generic ignores the seed entirely.
        for (std::uint64_t seed : {0ull, 42ull, 0xa27eull}) {
            auto p = func::makeClassProfile(func::FunctionClass::Generic,
                                            seed, idx);
            EXPECT_EQ(p.name, expect.name);
            EXPECT_EQ(p.workingSet, expect.workingSet);
            EXPECT_EQ(p.warmExec, expect.warmExec);
            EXPECT_EQ(p.inputSize, expect.inputSize);
            EXPECT_EQ(p.cls, func::FunctionClass::Generic);
        }
    }
}

} // namespace
} // namespace vhive::core

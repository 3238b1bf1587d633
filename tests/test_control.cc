/**
 * @file
 * Predictive control plane suite (ROADMAP item 2): the hybrid-
 * histogram predictor's determinism, the control-tick snapshot both
 * fleet engines build, pre-warm exactly-once accounting
 * at the orchestrator (including an invocation arriving mid-pre-warm),
 * bit-identity of a dormant policy against no policy at all, and
 * digest stability of the parallel kernel across thread counts with
 * an active policy issuing pre-warms.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/control_policy.hh"
#include "cluster/fleet_stats.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/routing_policy.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

#include "fleet_sums.hh"

namespace vhive {
namespace {

using core::ColdStartMode;
using core::InvokeOptions;
using core::Worker;
using core::WorkerConfig;
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

// ----------------------------------------------------- the predictor

TEST(InterarrivalHistogram, PercentilesAreDeterministicAndOrdered)
{
    cluster::InterarrivalHistogram a, b;
    for (Duration gap : {sec(10), sec(12), sec(9), sec(11), sec(10),
                         sec(13), sec(8)}) {
        a.note(gap);
        b.note(gap);
    }
    // Same feed, same structure: the predictor draws no randomness.
    EXPECT_EQ(a.count(), b.count());
    for (double p : {5.0, 50.0, 95.0, 99.0})
        EXPECT_EQ(a.percentileGap(p), b.percentileGap(p)) << "p" << p;
    EXPECT_LE(a.percentileGap(5), a.percentileGap(50));
    EXPECT_LE(a.percentileGap(50), a.percentileGap(99));
    // 8-13 s gaps span two adjacent 5 s bins: well inside any sane
    // spread limit.
    EXPECT_FALSE(a.outOfBounds(6));
}

TEST(InterarrivalHistogram, DispersedHistoryFallsOutOfBounds)
{
    cluster::InterarrivalHistogram h;
    EXPECT_TRUE(h.outOfBounds(6)); // empty history cannot predict
    for (Duration gap : {msec(2), msec(40), sec(1), sec(30), sec(900),
                         sec(3000)})
        h.note(gap);
    // [p5, p99] spans nearly the whole bucket range.
    EXPECT_TRUE(h.outOfBounds(6));
}

TEST(HybridHistogramPolicy, RegularArrivalsYieldDeterministicPreWarm)
{
    // Two policy instances fed identical arrivals must emit identical
    // action streams, and a regular inter-arrival pattern must yield
    // a PreWarm just ahead of the predicted window.
    cluster::HybridHistogramPolicy a, b;
    Time t = 0;
    for (int i = 0; i < 6; ++i) {
        t = sec(10) * (i + 1);
        a.noteArrival("fn", t);
        b.noteArrival("fn", t);
    }

    cluster::ControlTickContext ctx;
    ctx.workers = 4;
    cluster::ControlFunctionView v;
    v.name = "fn";
    v.homeWorker = 2;
    v.idleInstances = 0;
    v.homeChunkResidency = 1.0;
    ctx.functions.push_back(v);

    bool saw_prewarm = false;
    for (Duration dt = sec(2); dt <= sec(14); dt += sec(2)) {
        ctx.now = t + dt;
        std::vector<cluster::ControlAction> out_a, out_b;
        a.tick(ctx, out_a);
        b.tick(ctx, out_b);
        ASSERT_EQ(out_a.size(), out_b.size()) << "dt=" << dt;
        for (std::size_t i = 0; i < out_a.size(); ++i) {
            EXPECT_EQ(out_a[i].kind, out_b[i].kind);
            EXPECT_EQ(out_a[i].function, out_b[i].function);
            EXPECT_EQ(out_a[i].worker, out_b[i].worker);
            if (out_a[i].kind ==
                cluster::ControlAction::Kind::PreWarm) {
                saw_prewarm = true;
                EXPECT_EQ(out_a[i].worker, 2); // hash-home target
            }
        }
    }
    EXPECT_TRUE(saw_prewarm);
}

TEST(HybridHistogramPolicy, IdleOrWarmingFunctionsAreLeftAlone)
{
    cluster::HybridHistogramPolicy p;
    for (int i = 1; i <= 6; ++i)
        p.noteArrival("fn", sec(10) * i);

    cluster::ControlTickContext ctx;
    ctx.now = sec(68);
    cluster::ControlFunctionView v;
    v.name = "fn";
    v.idleInstances = 1; // already warm: nothing to do
    v.homeChunkResidency = 1.0;
    ctx.functions.push_back(v);
    std::vector<cluster::ControlAction> out;
    p.tick(ctx, out);
    EXPECT_TRUE(out.empty());

    ctx.functions[0].idleInstances = 0;
    ctx.functions[0].warming = true; // pre-warm already in flight
    out.clear();
    p.tick(ctx, out);
    EXPECT_TRUE(out.empty());
}

/** One tick of @p p for a single idle-less function view. */
std::vector<cluster::ControlAction>
tickOnce(cluster::ControlPolicy &p, Time now, double residency = 1.0)
{
    cluster::ControlTickContext ctx;
    ctx.now = now;
    ctx.workers = 4;
    cluster::ControlFunctionView v;
    v.name = "fn";
    v.homeWorker = 3;
    v.homeChunkResidency = residency;
    ctx.functions.push_back(v);
    std::vector<cluster::ControlAction> out;
    p.tick(ctx, out);
    return out;
}

TEST(HybridHistogramPolicy, ShortHistoryKeepsAliveForTwoMinutes)
{
    // Fewer than three gaps cannot predict: the policy falls back to a
    // plain keep-alive that pre-warms up to 120 s after the last
    // arrival and not a microsecond later.
    for (int arrivals = 1; arrivals <= 3; ++arrivals) {
        cluster::HybridHistogramPolicy p;
        Time last = 0;
        for (int i = 1; i <= arrivals; ++i) {
            last = sec(10) * i;
            p.noteArrival("fn", last);
        }
        auto at_limit = tickOnce(p, last + sec(120));
        ASSERT_EQ(at_limit.size(), 1u) << arrivals << " arrivals";
        EXPECT_EQ(at_limit[0].kind, cluster::ControlAction::Kind::PreWarm);
        EXPECT_EQ(at_limit[0].worker, 3);
        EXPECT_TRUE(tickOnce(p, last + sec(121)).empty())
            << arrivals << " arrivals";
        EXPECT_TRUE(tickOnce(p, last + sec(120) + 1).empty())
            << arrivals << " arrivals";
    }
}

TEST(HybridHistogramPolicy, DispersedHistoryFallsBackToKeepAlive)
{
    // Enough gaps, but [p5, p99] spans far more than six 5 s bins:
    // the out-of-bounds fallback, the same 120 s keep-alive.
    cluster::HybridHistogramPolicy p;
    Time t = 0;
    for (Duration gap : {sec(0), sec(5), sec(600), sec(30), sec(1500)}) {
        t += gap;
        p.noteArrival("fn", t);
    }
    auto out = tickOnce(p, t + sec(120), 0.0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, cluster::ControlAction::Kind::PreWarm);
    EXPECT_TRUE(tickOnce(p, t + sec(121), 0.0).empty());
}

TEST(HybridHistogramPolicy, RegularGapsPrefetchThenPreWarmAheadOfWindow)
{
    // Arrivals every 60 s: the predicted window opens at the last
    // arrival plus the histogram's p5 gap. The policy prefetches from
    // 30 s ahead of it while the home worker lacks chunks (once per
    // window), and pre-warms from 4 s ahead.
    cluster::HybridHistogramPolicy p;
    cluster::InterarrivalHistogram h;
    Time last = 0;
    for (int i = 1; i <= 6; ++i) {
        last = sec(60) * i;
        p.noteArrival("fn", last);
        if (i > 1)
            h.note(sec(60));
    }
    const Time w_start = last + h.percentileGap(5.0);
    const Time w_end = last + h.percentileGap(99.0);
    using Kind = cluster::ControlAction::Kind;

    // Outside the horizon, and fully resident: nothing.
    EXPECT_TRUE(tickOnce(p, w_start - sec(30) - 1, 0.5).empty());
    EXPECT_TRUE(tickOnce(p, w_start - sec(30), 1.0).empty());

    auto pf = tickOnce(p, w_start - sec(30), 0.5);
    ASSERT_EQ(pf.size(), 1u);
    EXPECT_EQ(pf[0].kind, Kind::Prefetch);
    EXPECT_EQ(pf[0].worker, 3);
    EXPECT_EQ(pf[0].until, w_end);
    // Already prefetched for this window.
    EXPECT_TRUE(tickOnce(p, w_start - sec(10), 0.5).empty());

    EXPECT_TRUE(tickOnce(p, w_start - sec(4) - 1, 0.5).empty());
    auto pw = tickOnce(p, w_start - sec(4), 0.5);
    ASSERT_EQ(pw.size(), 1u);
    EXPECT_EQ(pw[0].kind, Kind::PreWarm);
    EXPECT_EQ(tickOnce(p, w_end, 0.5).size(), 1u);
    // Past the window the prediction missed: wait for an arrival.
    EXPECT_TRUE(tickOnce(p, w_end + 1, 0.5).empty());
}

TEST(HybridHistogramPolicy, ScaleHintNeedsSlowColdsStillLanding)
{
    // The hint holds scale-downs only while cold p99 is over 1000 ms
    // AND cold starts rose since the previous tick.
    cluster::HybridHistogramPolicy p;
    auto hints = [&p](std::int64_t colds, double p99) {
        cluster::ControlTickContext ctx;
        ctx.coldStarts = colds;
        ctx.coldP99Ms = p99;
        std::vector<cluster::ControlAction> out;
        p.tick(ctx, out);
        for (const auto &a : out) {
            EXPECT_EQ(a.kind, cluster::ControlAction::Kind::ScaleHint);
            EXPECT_EQ(a.hint, 1);
        }
        return out.size();
    };
    EXPECT_EQ(hints(0, 5000.0), 0u);    // no colds yet
    EXPECT_EQ(hints(5, 1000.0), 0u);    // at target, not over
    EXPECT_EQ(hints(10, 1000.5), 1u);   // over target, colds rose
    EXPECT_EQ(hints(10, 2000.0), 0u);   // no new colds since last tick
    EXPECT_EQ(hints(11, 2000.0), 1u);
    EXPECT_EQ(hints(12, 999.0), 0u);
}

TEST(OraclePolicy, PrefetchesAndPreWarmsAheadOfKnownArrival)
{
    // Same lead and horizon as the histogram policy, against the exact
    // schedule.
    cluster::OraclePolicy p;
    p.setEpoch(sec(5));
    p.setSchedule("fn", {sec(100)});
    const Time next = sec(105);
    using Kind = cluster::ControlAction::Kind;
    EXPECT_TRUE(tickOnce(p, next - sec(30) - 1, 0.0).empty());
    auto pf = tickOnce(p, next - sec(30), 0.0);
    ASSERT_EQ(pf.size(), 1u);
    EXPECT_EQ(pf[0].kind, Kind::Prefetch);
    EXPECT_EQ(pf[0].until, next);
    EXPECT_TRUE(tickOnce(p, next - sec(4) - 1, 0.0).empty());
    auto pw = tickOnce(p, next - sec(4), 0.0);
    ASSERT_EQ(pw.size(), 1u);
    EXPECT_EQ(pw[0].kind, Kind::PreWarm);
    EXPECT_TRUE(tickOnce(p, next + 1, 0.0).empty()); // schedule spent
}

// ------------------------------------- the control-tick snapshot

/** Three workers; "b" idles one instance more on each higher worker,
 * "a" holds a tenth of its chunks more on each, "c" is warming. */
struct StubView final : public cluster::FleetView
{
    int workerCount() const override { return 3; }
    std::int64_t
    idleInstances(int worker, const std::string &name) const override
    {
        return name == "b" ? worker + 1 : 0;
    }
    std::int64_t inFlight(int) const override { return 0; }
    double
    chunkResidency(int worker, const std::string &name) const override
    {
        return name == "a" ? 0.1 * (worker + 1) : 0.0;
    }
    bool warming(const std::string &name) const override
    {
        return name == "c";
    }
};

TEST(ControlSnapshot, ReadsTheViewInTheEnginesFunctionOrder)
{
    StubView view;
    cluster::FleetStats tally;
    // Not sorted: Cluster passes map order, ParallelFleet mix order.
    const std::vector<std::string> names{"c", "a", "b"};
    cluster::ControlTickContext ctx =
        cluster::controlTickSnapshot(view, tally, sec(7), names);
    EXPECT_EQ(ctx.now, sec(7));
    EXPECT_EQ(ctx.workers, 3);
    EXPECT_EQ(ctx.coldStarts, 0);
    EXPECT_EQ(ctx.coldP99Ms, 0.0); // no colds yet
    ASSERT_EQ(ctx.functions.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const cluster::ControlFunctionView &v = ctx.functions[i];
        SCOPED_TRACE(names[i]);
        EXPECT_EQ(v.name, names[i]);
        EXPECT_EQ(v.homeWorker,
                  cluster::LocalityHashPolicy::homeWorker(names[i], 3));
        EXPECT_EQ(v.idleInstances, names[i] == "b" ? 1 + 2 + 3 : 0);
        EXPECT_EQ(v.warming, names[i] == "c");
        EXPECT_DOUBLE_EQ(v.homeChunkResidency,
                         view.chunkResidency(v.homeWorker, names[i]));
    }
    EXPECT_GT(ctx.functions[1].homeChunkResidency, 0.0);

    tally.noteInvocation(msec(40), /*cold=*/true);
    tally.noteInvocation(msec(5), /*cold=*/false);
    ctx = cluster::controlTickSnapshot(view, tally, sec(9), names);
    EXPECT_EQ(ctx.coldStarts, 1);
    EXPECT_DOUBLE_EQ(ctx.coldP99Ms, 40.0);
}

// -------------------------------------- orchestrator-level pre-warm

/** Worker with a recorded TieredReap snapshot of @p name, gone cold. */
struct ColdHost
{
    Simulation sim;
    WorkerConfig cfg;
    std::unique_ptr<Worker> w;

    explicit ColdHost(const std::string &name)
    {
        w = std::make_unique<Worker>(sim, cfg);
        auto &orch = w->orchestrator();
        orch.registerFunction(func::profileByName(name));
        runScenario(sim, [&]() -> Task<void> {
            co_await orch.prepareSnapshot(name);
            InvokeOptions opts;
            opts.forceCold = true;
            (void)co_await orch.invoke(name, ColdStartMode::TieredReap,
                                       opts);
        });
    }
};

TEST(PreWarm, PreWarmThenInvokeServedExactlyOnce)
{
    ColdHost host("pyaes");
    auto &orch = host.w->orchestrator();
    std::int64_t cold0 = orch.stats("pyaes").coldInvocations;

    core::LatencyBreakdown warm_bd, again_bd;
    runScenario(host.sim, [&]() -> Task<void> {
        auto pre = co_await orch.preWarm("pyaes",
                                         ColdStartMode::BackgroundWarm);
        EXPECT_GT(pre.total, 0);
        EXPECT_EQ(orch.idleInstanceCount("pyaes"), 1);

        InvokeOptions opts;
        opts.keepWarm = true;
        warm_bd = co_await orch.invoke(
            "pyaes", ColdStartMode::BackgroundWarm, opts);
        again_bd = co_await orch.invoke(
            "pyaes", ColdStartMode::BackgroundWarm, opts);
    });

    const auto &st = orch.stats("pyaes");
    // The pre-warm is not an invocation: cold count unchanged, one
    // preWarm recorded, and the first real invocation lands warm on
    // the pre-warmed instance — exactly once.
    EXPECT_EQ(st.coldInvocations, cold0);
    EXPECT_EQ(st.preWarms, 1);
    EXPECT_FALSE(warm_bd.cold);
    EXPECT_TRUE(warm_bd.preWarmHit);
    EXPECT_EQ(st.preWarmHits, 1);
    // The hit is consumed: later warm invocations are ordinary.
    EXPECT_FALSE(again_bd.cold);
    EXPECT_FALSE(again_bd.preWarmHit);
    EXPECT_EQ(st.warmInvocations, 2);
    EXPECT_EQ(orch.wastedPreWarms(), 0);
}

TEST(PreWarm, MidWarmArrivalWaitsAndLandsPartiallyWarmed)
{
    ColdHost host("pyaes");
    auto &orch = host.w->orchestrator();
    std::int64_t cold0 = orch.stats("pyaes").coldInvocations;

    core::LatencyBreakdown bd;
    Duration full_warm = 0;
    runScenario(host.sim, [&]() -> Task<void> {
        struct Pre {
            static Task<void>
            run(core::Orchestrator &orch, Duration *took)
            {
                auto b = co_await orch.preWarm(
                    "pyaes", ColdStartMode::BackgroundWarm);
                *took = b.total;
            }
        };
        host.sim.spawn(Pre::run(orch, &full_warm));
        // The pre-warm pays its CRI control-plane hop before the
        // warming instance exists; step past it, but stay far short
        // of the ~100 ms working-set load so the arrival is genuinely
        // mid-warm.
        for (int i = 0; i < 8 && orch.warmingCount("pyaes") == 0; ++i)
            co_await host.sim.delay(msec(1));
        // The pre-warm is mid-load: the invocation must wait on its
        // ready gate and then serve warm, not start a second cold
        // path — a partially-warmed start.
        EXPECT_EQ(orch.warmingCount("pyaes"), 1);
        InvokeOptions opts;
        opts.keepWarm = true;
        bd = co_await orch.invoke(
            "pyaes", ColdStartMode::BackgroundWarm, opts);
    });

    const auto &st = orch.stats("pyaes");
    EXPECT_GT(full_warm, 0);
    EXPECT_FALSE(bd.cold);
    EXPECT_TRUE(bd.preWarmHit);
    EXPECT_EQ(st.preWarms, 1);
    EXPECT_EQ(st.preWarmHits, 1);
    EXPECT_EQ(st.warmInvocations, 1);
    EXPECT_EQ(st.coldInvocations, cold0);
    EXPECT_EQ(orch.wastedPreWarms(), 0);
}

TEST(PreWarm, UnservedPreWarmIsCountedWasted)
{
    ColdHost host("pyaes");
    auto &orch = host.w->orchestrator();

    runScenario(host.sim, [&]() -> Task<void> {
        (void)co_await orch.preWarm("pyaes",
                                    ColdStartMode::BackgroundWarm);
        (void)co_await orch.stopIdleInstances("pyaes");
    });
    EXPECT_EQ(orch.stats("pyaes").preWarms, 1);
    EXPECT_EQ(orch.stats("pyaes").preWarmHits, 0);
    EXPECT_EQ(orch.wastedPreWarms(), 1);
}

// ----------------------------------------- cluster-level bit identity

struct ClusterRun
{
    std::int64_t invocations = 0;
    std::int64_t coldStarts = 0;
    std::int64_t warmHits = 0;
    std::int64_t events = 0;
    std::vector<double> e2e;
};

ClusterRun
runTrafficCluster(bool dormant_policy)
{
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 2;
    cfg.coldStartMode = ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(15);
    cluster::Cluster c(sim, cfg);
    if (dormant_policy) {
        // A policy that observes every tick but never acts must leave
        // the simulation bit-identical to running no policy at all
        // (the structural-determinism contract: ticks are pure).
        c.controlPolicies().registerPolicy(
            cluster::ControlPolicyKind::HybridHistogram,
            std::make_unique<cluster::NoControlPolicy>());
        c.setControlPolicy(cluster::ControlPolicyKind::HybridHistogram);
    }

    cluster::TrafficConfig tcfg;
    tcfg.functions = 6;
    tcfg.tenants = 2;
    tcfg.aggregateRps = 0.5;
    tcfg.horizon = sec(150);
    cluster::TrafficWorkload workload(sim, c, tcfg);

    runScenario(sim, [&]() -> Task<void> {
        co_await workload.run();
    });
    cluster::FleetStats fs = c.fleetStats();
    ClusterRun r;
    r.invocations = fs.invocations;
    r.coldStarts = fs.coldStarts;
    r.warmHits = fs.warmHits;
    r.events = sim.eventsProcessed();
    r.e2e = fs.e2eLatencyMs.values();
    return r;
}

TEST(ControlCluster, DormantPolicyBitIdenticalToNoPolicy)
{
    ClusterRun base = runTrafficCluster(false);
    ClusterRun dormant = runTrafficCluster(true);

    ASSERT_GT(base.invocations, 5);
    EXPECT_EQ(base.invocations, dormant.invocations);
    EXPECT_EQ(base.coldStarts, dormant.coldStarts);
    EXPECT_EQ(base.warmHits, dormant.warmHits);
    EXPECT_EQ(base.events, dormant.events);
    ASSERT_EQ(base.e2e.size(), dormant.e2e.size());
    for (std::size_t i = 0; i < base.e2e.size(); ++i)
        EXPECT_EQ(base.e2e[i], dormant.e2e[i]) << "sample " << i;
}

TEST(ControlCluster, ActivePolicyPreWarmsAndCutsColds)
{
    auto run = [](cluster::ControlPolicyKind policy) {
        Simulation sim;
        cluster::ClusterConfig cfg;
        cfg.workers = 2;
        cfg.coldStartMode = ColdStartMode::TieredReap;
        cfg.sharedSnapshots = true;
        cfg.keepAlive = sec(15);
        cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
        cfg.controlPolicy = policy;
        cluster::Cluster c(sim, cfg);

        cluster::TrafficConfig tcfg;
        tcfg.functions = 8;
        tcfg.tenants = 2;
        tcfg.aggregateRps = 0.4;
        tcfg.horizon = sec(240);
        cluster::TrafficWorkload workload(sim, c, tcfg);
        runScenario(sim, [&]() -> Task<void> {
            co_await workload.run();
        });
        cluster::FleetStats fs = c.fleetStats();
        cluster::FunctionSums rows = cluster::sumFunctionStats(
            c, cluster::functionNames(workload.engine()));
        EXPECT_EQ(rows.coldStarts + rows.warmHits +
                      rows.failedInvocations,
                  fs.invocations);
        return fs;
    };

    cluster::FleetStats fs_none = run(cluster::ControlPolicyKind::None);
    cluster::FleetStats fs_hybrid =
        run(cluster::ControlPolicyKind::HybridHistogram);

    EXPECT_EQ(fs_none.preWarms, 0);
    EXPECT_GT(fs_hybrid.preWarms, 0);
    EXPECT_GT(fs_hybrid.preWarmHits, 0);
    // The point of the layer: pre-warming converts cold starts.
    EXPECT_LT(fs_hybrid.coldStarts, fs_none.coldStarts);
    // And the waste accounting runs: an always-on fleet integrates
    // idle-warm byte-seconds under either policy.
    EXPECT_GT(fs_hybrid.wastedResidentByteSec, 0.0);
}

/**
 * A small 4-worker shared-tiered fleet driven by TrafficWorkload
 * under @p policy. The Oracle is fed the exact schedule: the arrival
 * streams the workload will draw, replayed relative to the instant
 * its arrival loops start (staging is done first, so run()'s own
 * staging and record pass are no-ops).
 */
std::pair<cluster::FleetStats, cluster::FunctionSums>
runPolicyFleet(cluster::ControlPolicyKind policy)
{
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(15);
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.controlPolicy = policy;
    cluster::Cluster c(sim, cfg);

    cluster::TrafficConfig tcfg;
    tcfg.functions = 8;
    tcfg.tenants = 2;
    tcfg.aggregateRps = 0.4;
    tcfg.horizon = sec(240);
    cluster::TrafficWorkload workload(sim, c, tcfg);
    const cluster::TrafficEngine &eng = workload.engine();
    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        if (policy == cluster::ControlPolicyKind::Oracle) {
            auto &oracle = static_cast<cluster::OraclePolicy &>(
                c.controlPolicies().policyFor(policy));
            oracle.setEpoch(sim.now());
            for (int fn = 0; fn < eng.functionCount(); ++fn) {
                Rng local = eng.arrivalStream(fn);
                std::vector<Duration> offsets;
                for (Duration t = eng.nextArrival(fn, 0, local);
                     t < tcfg.horizon;
                     t = eng.nextArrival(fn, t, local))
                    offsets.push_back(t);
                oracle.setSchedule(eng.profile(fn).name,
                                   std::move(offsets));
            }
        }
        co_await workload.run();
    });
    return {c.fleetStats(),
            cluster::sumFunctionStats(c, cluster::functionNames(eng))};
}

TEST(ControlCluster, WorkerRowsSumToFleetCounts)
{
    // The sequential engine's per-worker rows carry the keep-alive
    // sweep's scale-downs as the parallel one's do; the per-function
    // rows count the same sweeps independently.
    auto [fs, rows] =
        runPolicyFleet(cluster::ControlPolicyKind::HybridHistogram);
    ASSERT_EQ(fs.perWorker.size(), 4u);
    std::int64_t colds = 0, warms = 0, scale_downs = 0;
    for (const cluster::WorkerFleetRow &row : fs.perWorker) {
        colds += row.coldStarts;
        warms += row.warmHits;
        scale_downs += row.scaleDowns;
    }
    EXPECT_EQ(colds, fs.coldStarts);
    EXPECT_EQ(warms, fs.warmHits);
    EXPECT_EQ(scale_downs, fs.scaleDowns);
    EXPECT_EQ(rows.scaleDowns, fs.scaleDowns);
    EXPECT_GT(fs.scaleDowns, 0); // keepAlive is 15 s
}

TEST(ControlCluster, NaiveKeepAliveAndOraclePreWarmAndAccount)
{
    for (cluster::ControlPolicyKind policy :
         {cluster::ControlPolicyKind::NaiveKeepAlive,
          cluster::ControlPolicyKind::Oracle}) {
        SCOPED_TRACE(cluster::controlPolicyName(policy));
        auto [fs, rows] = runPolicyFleet(policy);
        EXPECT_GT(fs.invocations, 5);
        cluster::expectCompletionIdentity(fs, rows);
        EXPECT_GT(fs.preWarms, 0);
        EXPECT_LE(fs.preWarmHits, fs.warmHits);
        if (policy == cluster::ControlPolicyKind::Oracle) {
            // Clairvoyance pays: some pre-warm lands before its
            // arrival and serves it.
            EXPECT_GT(fs.preWarmHits, 0);
        }
    }
}

// --------------------------------------------------- parallel kernel

/**
 * A 4-worker shared-tiered fleet on the parallel kernel under the
 * hybrid-histogram policy, with a flash crowd: the control tick runs
 * in domain 0 against the mirrored view and pre-warms actively.
 */
cluster::FleetStats
runControlFleet(int threads)
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.simThreads = threads;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 2;
    cfg.routingPolicy = cluster::RoutingPolicyKind::LocalityHash;
    cfg.controlPolicy = cluster::ControlPolicyKind::HybridHistogram;
    cfg.keepAlive = sec(15);
    cluster::TrafficConfig tc;
    tc.functions = 8;
    tc.tenants = 3;
    tc.aggregateRps = 0.5;
    tc.horizon = sec(150);
    cluster::BurstSpec crowd;
    crowd.kind = cluster::BurstKind::FlashCrowd;
    crowd.tenant = 1;
    crowd.start = sec(50);
    crowd.duration = sec(20);
    crowd.multiplier = 8.0;
    tc.bursts.push_back(crowd);
    cfg.traffic = tc;
    cluster::ParallelFleet fleet(cfg);
    return fleet.run();
}

TEST(ControlParallel, ActivePolicyDigestStableAcrossThreadCounts)
{
    // An actively pre-warming fleet must stay bit-identical across
    // sim thread counts.
    cluster::FleetStats ref = runControlFleet(1);
    ASSERT_GT(ref.invocations, 0);
    // The policy genuinely acted on the parallel kernel.
    EXPECT_GT(ref.preWarms, 0);
    EXPECT_EQ(ref.coldStarts + ref.warmHits, ref.invocations);
    std::uint64_t ref_digest = ref.digest();
    for (int threads : {2, 4, 8}) {
        cluster::FleetStats r = runControlFleet(threads);
        EXPECT_EQ(r.digest(), ref_digest) << "threads=" << threads;
        EXPECT_EQ(r.preWarms, ref.preWarms) << "threads=" << threads;
    }
}

/** The worker-held fields addWorkerFold fills, for comparison. */
struct WorkerFold
{
    std::vector<std::int64_t> rowColds, rowWarms, rowScaleDowns;
    std::vector<Bytes> rowResident;
    std::vector<std::int64_t> tierHits;
    Bytes residentBytes = 0;
    double wastedResidentByteSec = 0;
    double idleWarmInstanceSec = 0;
    std::int64_t preWarms = 0, preWarmHits = 0, wastedPreWarms = 0;
    std::int64_t bgPrefetches = 0;

    bool operator==(const WorkerFold &) const = default;
};

WorkerFold
workerFold(const cluster::FleetStats &fs)
{
    WorkerFold f;
    for (const cluster::WorkerFleetRow &row : fs.perWorker) {
        f.rowColds.push_back(row.coldStarts);
        f.rowWarms.push_back(row.warmHits);
        f.rowScaleDowns.push_back(row.scaleDowns);
        f.rowResident.push_back(row.residentBytes);
    }
    for (const mem::TierStats &t : fs.tierHits) {
        f.tierHits.push_back(t.hits);
        f.tierHits.push_back(t.misses);
        f.tierHits.push_back(t.bytes);
    }
    f.residentBytes = fs.residentBytes;
    f.wastedResidentByteSec = fs.wastedResidentByteSec;
    f.idleWarmInstanceSec = fs.idleWarmInstanceSec;
    f.preWarms = fs.preWarms;
    f.preWarmHits = fs.preWarmHits;
    f.wastedPreWarms = fs.wastedPreWarms;
    f.bgPrefetches = fs.bgPrefetches;
    return f;
}

TEST(ControlParallel, WorkerFoldFillsEveryWorkerField)
{
    // The parallel engine folds each worker's row and orchestrator
    // counters as the sequential Cluster does: per-worker rows that
    // sum to the fleet counts (scale-downs included), tier rows,
    // resident memory, the idle-waste integrals and pre-warm waste —
    // identical at every sim thread count.
    std::optional<WorkerFold> ref;
    for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        cluster::FleetStats fs = runControlFleet(threads);
        ASSERT_EQ(fs.perWorker.size(), 4u);
        std::int64_t colds = 0, warms = 0, scale_downs = 0;
        for (std::size_t w = 0; w < fs.perWorker.size(); ++w) {
            EXPECT_EQ(fs.perWorker[w].worker, static_cast<int>(w));
            colds += fs.perWorker[w].coldStarts;
            warms += fs.perWorker[w].warmHits;
            scale_downs += fs.perWorker[w].scaleDowns;
        }
        EXPECT_EQ(colds, fs.coldStarts);
        EXPECT_EQ(warms, fs.warmHits);
        EXPECT_EQ(scale_downs, fs.scaleDowns);
        EXPECT_GT(fs.scaleDowns, 0); // keepAlive is 15 s
        EXPECT_GT(fs.wastedPreWarms, 0);
        EXPECT_LE(fs.preWarmHits + fs.wastedPreWarms, fs.preWarms);
        EXPECT_FALSE(fs.tierHits.empty());
        EXPECT_GT(fs.residentBytes, 0);
        EXPECT_GT(fs.wastedResidentByteSec, 0.0);
        WorkerFold f = workerFold(fs);
        if (!ref)
            ref = f;
        else
            EXPECT_TRUE(f == *ref);
    }
}

} // namespace
} // namespace vhive

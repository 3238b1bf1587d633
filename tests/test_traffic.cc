/**
 * @file
 * Property tests for the planet-scale traffic model
 * (cluster/traffic.hh): deterministic construction per seed, seed
 * sensitivity, burst membership semantics, thinning-sampler accuracy
 * against the analytic rate integral, and the open-loop
 * TrafficWorkload driver on a small cluster.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/traffic.hh"
#include "sim/simulation.hh"
#include "util/rng.hh"
#include "util/units.hh"

#include "fleet_sums.hh"

namespace vhive::cluster {
namespace {

TrafficConfig
smallConfig()
{
    TrafficConfig cfg;
    cfg.functions = 24;
    cfg.tenants = 4;
    cfg.zipfExponent = 1.1;
    cfg.aggregateRps = 10.0;
    cfg.horizon = sec(300);
    return cfg;
}

TEST(TrafficEngine, ConstructionIsDeterministicPerSeed)
{
    TrafficConfig cfg = smallConfig();
    cfg.diurnal.amplitude = 0.4;
    BurstSpec storm;
    storm.kind = BurstKind::DeployStorm;
    storm.fraction = 0.3;
    cfg.bursts.push_back(storm);

    TrafficEngine a(cfg);
    TrafficEngine b(cfg);
    for (int i = 0; i < cfg.functions; ++i) {
        EXPECT_EQ(a.profile(i).name, b.profile(i).name);
        EXPECT_EQ(a.tenantOf(i), b.tenantOf(i));
        EXPECT_DOUBLE_EQ(a.baseRate(i), b.baseRate(i));
        EXPECT_EQ(a.burstAffects(0, i), b.burstAffects(0, i));
        EXPECT_DOUBLE_EQ(a.rateAt(i, sec(42)), b.rateAt(i, sec(42)));
    }

    // And the arrival streams themselves are reproducible.
    Rng r1(cfg.seed, "traffic-arrivals/x");
    Rng r2(cfg.seed, "traffic-arrivals/x");
    Duration t1 = 0, t2 = 0;
    for (int k = 0; k < 50; ++k) {
        t1 = a.nextArrival(0, t1, r1);
        t2 = b.nextArrival(0, t2, r2);
        EXPECT_EQ(t1, t2);
    }
}

TEST(TrafficEngine, SeedChangesTenantsAndBurstMembership)
{
    TrafficConfig cfg = smallConfig();
    BurstSpec storm;
    storm.kind = BurstKind::DeployStorm;
    storm.fraction = 0.5;
    cfg.bursts.push_back(storm);

    TrafficConfig other = cfg;
    other.seed = cfg.seed + 1;
    TrafficEngine a(cfg);
    TrafficEngine b(other);

    int tenant_diffs = 0, member_diffs = 0;
    for (int i = 0; i < cfg.functions; ++i) {
        tenant_diffs += a.tenantOf(i) != b.tenantOf(i);
        member_diffs += a.burstAffects(0, i) != b.burstAffects(0, i);
    }
    EXPECT_GT(tenant_diffs, 0);
    EXPECT_GT(member_diffs, 0);
}

TEST(TrafficEngine, ZipfRatesAreNormalizedAndSkewed)
{
    TrafficConfig cfg = smallConfig();
    TrafficEngine eng(cfg);
    double sum = 0;
    for (int i = 0; i < cfg.functions; ++i) {
        sum += eng.baseRate(i);
        if (i > 0) {
            EXPECT_LT(eng.baseRate(i), eng.baseRate(i - 1));
        }
    }
    EXPECT_NEAR(sum, cfg.aggregateRps, 1e-9);
    // Heavy tail: the hottest function dominates the coldest.
    EXPECT_GT(eng.baseRate(0) / eng.baseRate(cfg.functions - 1), 10.0);
}

TEST(TrafficEngine, BurstSemantics)
{
    TrafficConfig cfg = smallConfig();
    cfg.diurnal.amplitude = 0; // isolate the burst factor
    BurstSpec crowd;
    crowd.kind = BurstKind::FlashCrowd;
    crowd.tenant = 2;
    crowd.start = sec(100);
    crowd.duration = sec(30);
    crowd.multiplier = 12.0;
    cfg.bursts.push_back(crowd);
    TrafficEngine eng(cfg);

    for (int i = 0; i < cfg.functions; ++i) {
        EXPECT_EQ(eng.burstAffects(0, i), eng.tenantOf(i) == 2);
        double before = eng.rateAt(i, sec(99));
        double during = eng.rateAt(i, sec(110));
        double after = eng.rateAt(i, sec(131));
        if (eng.tenantOf(i) == 2) {
            EXPECT_NEAR(during / before, 12.0, 1e-9);
        } else {
            EXPECT_DOUBLE_EQ(during, before);
        }
        EXPECT_DOUBLE_EQ(after, before);
        // The thinning envelope really bounds the modulated rate.
        EXPECT_LE(during, eng.peakRate(i) + 1e-12);
    }
}

TEST(TrafficEngine, DiurnalModulatesAroundBaseRate)
{
    TrafficConfig cfg = smallConfig();
    cfg.diurnal.amplitude = 0.6;
    cfg.diurnal.period = sec(200);
    TrafficEngine eng(cfg);

    // Peak at a quarter period, trough at three quarters.
    EXPECT_NEAR(eng.rateAt(3, sec(50)), eng.baseRate(3) * 1.6, 1e-9);
    EXPECT_NEAR(eng.rateAt(3, sec(150)), eng.baseRate(3) * 0.4, 1e-9);
    // Mean over one full period is the base rate.
    double mean = eng.expectedArrivals(3, 0, sec(200)) / 200.0;
    EXPECT_NEAR(mean, eng.baseRate(3), eng.baseRate(3) * 0.01);
}

TEST(TrafficEngine, ThinningSamplerHitsTargetRate)
{
    // The sampled arrival count over the horizon matches the analytic
    // integral of the rate function within Poisson noise (~4 sigma).
    TrafficConfig cfg = smallConfig();
    cfg.aggregateRps = 50.0;
    cfg.diurnal.amplitude = 0.5;
    cfg.diurnal.period = sec(120);
    BurstSpec crowd;
    crowd.kind = BurstKind::FlashCrowd;
    crowd.tenant = 1;
    crowd.start = sec(60);
    crowd.duration = sec(40);
    crowd.multiplier = 6.0;
    cfg.bursts.push_back(crowd);
    TrafficEngine eng(cfg);

    for (int fn : {0, 1, 2, 5}) {
        double expect = eng.expectedArrivals(fn, 0, cfg.horizon);
        ASSERT_GT(expect, 30.0) << "fn=" << fn
                                << " too sparse to test";
        Rng rng(cfg.seed, "thinning-test/" + std::to_string(fn));
        std::int64_t n = 0;
        Duration t = 0;
        while (true) {
            t = eng.nextArrival(fn, t, rng);
            if (t >= cfg.horizon)
                break;
            ++n;
        }
        double sigma = std::sqrt(expect);
        EXPECT_NEAR(static_cast<double>(n), expect, 4.0 * sigma)
            << "fn=" << fn;
    }
}

TEST(TrafficEngine, PeriodicClassFiresOnTimerGrid)
{
    TrafficConfig cfg = smallConfig();
    cfg.periodicFraction = 0.5;
    cfg.periodicMinPeriod = sec(30);
    cfg.periodicMaxPeriod = sec(120);
    cfg.horizon = sec(600);
    // Modulation a timer must ignore.
    cfg.diurnal.amplitude = 0.5;
    cfg.diurnal.period = sec(120);
    TrafficEngine a(cfg), b(cfg);

    int periodic = 0;
    for (int fn = 0; fn < cfg.functions; ++fn) {
        ASSERT_EQ(a.isPeriodic(fn), b.isPeriodic(fn)) << fn;
        ASSERT_EQ(a.periodOf(fn), b.periodOf(fn)) << fn;
        if (!a.isPeriodic(fn))
            continue;
        ++periodic;
        Duration period = a.periodOf(fn);
        EXPECT_GE(period, cfg.periodicMinPeriod);
        EXPECT_LE(period, cfg.periodicMaxPeriod);
        // A timer's rate is flat: no diurnal or burst modulation.
        EXPECT_EQ(a.rateAt(fn, 0), a.rateAt(fn, sec(60)));

        // Arrivals walk the jittered grid: every gap within one
        // period +/- the jitter band, and the stream is identical
        // across engines fed the same Rng stream.
        Rng ra(cfg.seed, "periodic-test"), rb(cfg.seed,
                                              "periodic-test");
        Duration ta = 0, tb = 0;
        auto slack = static_cast<Duration>(
            kPeriodicJitter * static_cast<double>(period));
        for (int i = 0; i < 12; ++i) {
            Duration prev = ta;
            ta = a.nextArrival(fn, ta, ra);
            tb = b.nextArrival(fn, tb, rb);
            ASSERT_EQ(ta, tb) << "fn=" << fn << " i=" << i;
            ASSERT_GT(ta, prev);
            if (i > 0) {
                EXPECT_GE(ta - prev, period - slack);
                EXPECT_LE(ta - prev, period + slack);
            }
        }
        // Count over the horizon matches the timer rate.
        double expect = a.expectedArrivals(fn, 0, cfg.horizon);
        EXPECT_NEAR(expect,
                    static_cast<double>(cfg.horizon) /
                        static_cast<double>(period),
                    1.0);
    }
    // periodicFraction=0.5 over 24 functions: both classes present.
    EXPECT_GT(periodic, 4);
    EXPECT_LT(periodic, 20);
}

TEST(TrafficWorkload, OpenLoopDrivesAndDrains)
{
    sim::Simulation sim;
    ClusterConfig ccfg;
    ccfg.workers = 2;
    ccfg.coldStartMode = core::ColdStartMode::Reap;
    Cluster cluster(sim, ccfg);

    TrafficConfig tcfg = smallConfig();
    tcfg.functions = 6;
    tcfg.aggregateRps = 1.0;
    tcfg.horizon = sec(120);
    TrafficWorkload wl(sim, cluster, tcfg);

    sim.spawn([](TrafficWorkload &wl) -> sim::Task<void> {
        co_await wl.run();
    }(wl));
    sim.run();

    FleetStats r = cluster.fleetStats();
    FunctionSums rows =
        sumFunctionStats(cluster, functionNames(wl.engine()));
    EXPECT_GT(r.invocations, 0);
    // Open loop still completes every fired invocation.
    EXPECT_EQ(rows.coldStarts + rows.warmHits + rows.failedInvocations,
              r.invocations);
    EXPECT_EQ(r.e2eLatencyMs.count(), rows.invocations);
    // Every arrival the engine's streams schedule was fired and
    // drained.
    std::int64_t fired = 0;
    for (int fn = 0; fn < wl.engine().functionCount(); ++fn) {
        Rng local = wl.engine().arrivalStream(fn);
        for (Duration t = wl.engine().nextArrival(fn, 0, local);
             t < tcfg.horizon; t = wl.engine().nextArrival(fn, t, local))
            ++fired;
    }
    EXPECT_EQ(r.invocations, fired);
}

} // namespace
} // namespace vhive::cluster

#include "cluster/traffic.hh"

#include <cmath>

#include "cluster/azure_workload.hh"
#include "util/logging.hh"

namespace vhive::cluster {

PoissonTraffic::PoissonTraffic(sim::Simulation &sim, Cluster &cluster,
                               std::string function,
                               Duration mean_interarrival,
                               std::int64_t count, std::uint64_t seed)
    : sim(sim), cluster(cluster), function(std::move(function)),
      meanInterarrival(mean_interarrival), count(count),
      rng(seed, "poisson/" + this->function)
{
    VHIVE_ASSERT(count >= 0);
    VHIVE_ASSERT(mean_interarrival > 0);
}

sim::Task<void>
PoissonTraffic::fireOne()
{
    (void)co_await cluster.invoke(function);
}

sim::Task<void>
PoissonTraffic::run()
{
    sim::Latch done(sim, 0);
    for (std::int64_t i = 0; i < count; ++i) {
        co_await sim.delay(static_cast<Duration>(rng.exponential(
            static_cast<double>(meanInterarrival))));
        done.spawn(fireOne());
    }
    co_await done.wait();
}

ClosedLoopTraffic::ClosedLoopTraffic(sim::Simulation &sim,
                                     Cluster &cluster,
                                     std::string function, int clients,
                                     Duration think_time)
    : sim(sim), cluster(cluster), function(std::move(function)),
      clients(clients), thinkTime(think_time)
{
    VHIVE_ASSERT(clients >= 1);
}

sim::Task<void>
ClosedLoopTraffic::client()
{
    while (!stopping) {
        (void)co_await cluster.invoke(function);
        ++_completed;
        co_await sim.delay(thinkTime);
    }
}

void
ClosedLoopTraffic::start()
{
    VHIVE_ASSERT(!drain); // start() may only be called once
    drain = std::make_unique<sim::Latch>(sim, 0);
    for (int i = 0; i < clients; ++i)
        drain->spawn(client());
}

sim::Task<void>
ClosedLoopTraffic::stopAndDrain()
{
    VHIVE_ASSERT(drain); // must have been started
    stopping = true;
    co_await drain->wait();
}

// ------------------------------------------------------ TrafficEngine

TrafficEngine::TrafficEngine(TrafficConfig config) : cfg(std::move(config))
{
    VHIVE_ASSERT(cfg.functions >= 1);
    VHIVE_ASSERT(cfg.tenants >= 1);
    VHIVE_ASSERT(cfg.zipfExponent >= 0);
    VHIVE_ASSERT(cfg.aggregateRps > 0);
    VHIVE_ASSERT(cfg.diurnal.amplitude >= 0 &&
                 cfg.diurnal.amplitude <= 0.95);
    VHIVE_ASSERT(cfg.diurnal.period > 0);

    // Profiles: same synthesis scheme as the Azure mix, distinct name
    // prefix so traffic- and mix-driven fleets never collide.
    profiles.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i) {
        func::FunctionProfile p = mixProfile(cfg.classMix, cfg.seed, i);
        p.name = "tr_" + std::to_string(i) + "_" + p.name;
        profiles.push_back(std::move(p));
    }

    // Uniform tenant assignment from a named sub-stream.
    Rng trng(cfg.seed, "traffic-tenants");
    tenants.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i)
        tenants.push_back(
            static_cast<int>(trng.uniformInt(0, cfg.tenants - 1)));

    // Zipf base rates: rank == index (function 0 is the hottest),
    // normalized so the population sums to aggregateRps.
    double norm = 0;
    for (int i = 0; i < cfg.functions; ++i)
        norm += std::pow(static_cast<double>(i + 1), -cfg.zipfExponent);
    baseRates.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i)
        baseRates.push_back(
            cfg.aggregateRps *
            std::pow(static_cast<double>(i + 1), -cfg.zipfExponent) /
            norm);

    // Periodic (cron-like) class: membership, period and phase from
    // one named stream, three draws per function regardless of
    // outcome so one function's membership never shifts another's
    // period.
    VHIVE_ASSERT(cfg.periodicFraction >= 0 &&
                 cfg.periodicFraction <= 1);
    VHIVE_ASSERT(cfg.periodicMinPeriod > 0 &&
                 cfg.periodicMaxPeriod >= cfg.periodicMinPeriod);
    periods.assign(static_cast<size_t>(cfg.functions), 0);
    phases.assign(static_cast<size_t>(cfg.functions), 0);
    if (cfg.periodicFraction > 0) {
        Rng prng(cfg.seed, "traffic-periodic");
        double lo =
            std::log(static_cast<double>(cfg.periodicMinPeriod));
        double hi =
            std::log(static_cast<double>(cfg.periodicMaxPeriod));
        for (int i = 0; i < cfg.functions; ++i) {
            bool in = prng.chance(cfg.periodicFraction);
            double u = prng.uniform();
            double v = prng.uniform();
            if (!in)
                continue;
            auto period = static_cast<Duration>(
                std::exp(lo + u * (hi - lo)));
            periods[static_cast<size_t>(i)] = period;
            phases[static_cast<size_t>(i)] =
                static_cast<Duration>(v * static_cast<double>(period));
        }
    }

    // Burst membership, precomputed per burst from its own stream so
    // adding a burst never perturbs another burst's membership.
    burstMembers.reserve(cfg.bursts.size());
    for (size_t b = 0; b < cfg.bursts.size(); ++b) {
        const BurstSpec &spec = cfg.bursts[b];
        VHIVE_ASSERT(spec.duration > 0 && spec.multiplier > 0);
        std::vector<bool> members(static_cast<size_t>(cfg.functions));
        Rng brng(cfg.seed, "traffic-burst/" + std::to_string(b));
        for (int i = 0; i < cfg.functions; ++i) {
            bool in = false;
            switch (spec.kind) {
              case BurstKind::FlashCrowd:
                in = tenants[static_cast<size_t>(i)] == spec.tenant;
                break;
              case BurstKind::DeployStorm:
                // One draw per function regardless of outcome keeps
                // membership independent of earlier functions.
                in = brng.chance(spec.fraction);
                break;
            }
            members[static_cast<size_t>(i)] = in;
        }
        burstMembers.push_back(std::move(members));
    }

    // Thinning envelope: worst-case burst stack per function.
    burstPeaks.assign(static_cast<size_t>(cfg.functions), 1.0);
    for (size_t b = 0; b < cfg.bursts.size(); ++b)
        for (int i = 0; i < cfg.functions; ++i)
            if (burstAffects(static_cast<int>(b), i) &&
                cfg.bursts[b].multiplier > 1.0)
                burstPeaks[static_cast<size_t>(i)] *=
                    cfg.bursts[b].multiplier;
}

double
TrafficEngine::diurnalFactor(Duration t) const
{
    if (cfg.diurnal.amplitude == 0)
        return 1.0;
    double frac = static_cast<double>(t) /
                      static_cast<double>(cfg.diurnal.period) +
                  cfg.diurnal.phase;
    constexpr double kTau = 6.283185307179586;
    return 1.0 + cfg.diurnal.amplitude * std::sin(kTau * frac);
}

double
TrafficEngine::rateAt(int fn, Duration t) const
{
    if (isPeriodic(fn))
        return 1e9 / static_cast<double>(periodOf(fn));
    double rate = baseRate(fn) * diurnalFactor(t);
    for (size_t b = 0; b < cfg.bursts.size(); ++b) {
        const BurstSpec &spec = cfg.bursts[b];
        if (t >= spec.start && t < spec.start + spec.duration &&
            burstAffects(static_cast<int>(b), fn))
            rate *= spec.multiplier;
    }
    return rate;
}

double
TrafficEngine::peakRate(int fn) const
{
    if (isPeriodic(fn))
        return 1e9 / static_cast<double>(periodOf(fn));
    return baseRate(fn) * (1.0 + cfg.diurnal.amplitude) *
           burstPeaks[static_cast<size_t>(fn)];
}

double
TrafficEngine::expectedArrivals(int fn, Duration t0, Duration t1) const
{
    if (t1 <= t0)
        return 0;
    // Trapezoidal integration, fine enough that burst edges (step
    // functions narrower than one slice) still integrate to within
    // a slice's worth of rate.
    constexpr int kSlices = 4096;
    double dt = static_cast<double>(t1 - t0) / kSlices;
    double sum = 0;
    for (int k = 0; k < kSlices; ++k) {
        Duration ta = t0 + static_cast<Duration>(dt * k);
        Duration tb = t0 + static_cast<Duration>(dt * (k + 1));
        sum += 0.5 * (rateAt(fn, ta) + rateAt(fn, tb)) * dt;
    }
    return sum / 1e9; // rates are 1/sec, dt is ns
}

Duration
TrafficEngine::nextArrival(int fn, Duration now, Rng &rng) const
{
    if (Duration period = periodOf(fn); period > 0) {
        // Timer arrivals: the first grid point strictly after @p now,
        // plus a small uniform jitter. Exactly one draw per arrival,
        // so the stream stays aligned for every consumer (sequential
        // driver, parallel fleet, oracle replay).
        Duration phase = phases[static_cast<size_t>(fn)];
        std::int64_t k =
            now < phase ? 0 : (now - phase) / period + 1;
        Duration jitter = static_cast<Duration>(
            rng.uniform() * kPeriodicJitter *
            static_cast<double>(period));
        Duration t = phase + k * period + jitter;
        if (t <= now)
            t = phase + (k + 1) * period + jitter;
        return t;
    }
    // Lewis-Shedler thinning: candidate gaps at the envelope rate,
    // accepted with probability rate(t)/peak. Acceptance is bounded
    // below by (1 - amplitude) / ((1 + amplitude) * burstPeak) > 0,
    // so the loop terminates with probability 1.
    double peak = peakRate(fn);
    VHIVE_ASSERT(peak > 0);
    double mean_gap_ns = 1e9 / peak;
    Duration t = now;
    for (;;) {
        Duration gap = static_cast<Duration>(
            rng.exponential(mean_gap_ns));
        t += std::max<Duration>(1, gap);
        if (rng.uniform() < rateAt(fn, t) / peak)
            return t;
    }
}

Rng
TrafficEngine::arrivalStream(int fn) const
{
    return Rng(cfg.seed, "traffic-arrivals/" + profile(fn).name);
}

// ---------------------------------------------------- TrafficWorkload

TrafficWorkload::TrafficWorkload(sim::Simulation &sim, Cluster &cluster,
                                 TrafficConfig config)
    : sim(sim), cluster(cluster), eng(std::move(config))
{
    for (int i = 0; i < eng.functionCount(); ++i)
        cluster.deploy(eng.profile(i));
}

sim::Task<void>
TrafficWorkload::fireOne(int fn)
{
    (void)co_await cluster.invoke(eng.profile(fn).name);
}

sim::Task<void>
TrafficWorkload::arrivalLoop(int fn, sim::Latch *fires)
{
    Rng local = eng.arrivalStream(fn);
    Time start = sim.now();
    Duration t = 0;
    while (true) {
        t = eng.nextArrival(fn, t, local);
        if (t >= eng.config().horizon)
            break;
        co_await sim.delay(start + t - sim.now());
        // Open loop: fire and move on. The invocation completes (or
        // fails) on its own task; run() waits for the stragglers.
        fires->spawn(fireOne(fn));
    }
}

sim::Task<void>
TrafficWorkload::run()
{
    co_await cluster.prepareAllSnapshots();
    std::vector<std::string> names;
    for (int i = 0; i < eng.functionCount(); ++i)
        names.push_back(eng.profile(i).name);
    co_await cluster.preRecordWorkingSets(names);

    cluster.startAutoscaler();

    sim::Latch fires(sim, 0);
    sim::Latch loops(sim, 0);
    for (int i = 0; i < eng.functionCount(); ++i)
        loops.spawn(arrivalLoop(i, &fires));
    co_await loops.wait();
    co_await fires.wait();

    cluster.stopAutoscaler();
}

} // namespace vhive::cluster

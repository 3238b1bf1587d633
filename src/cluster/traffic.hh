/**
 * @file
 * Invocation traffic generators. Production serverless arrivals are
 * sporadic (Sec. 2.1: 90% of functions invoked less than once per
 * minute), which the Poisson generator models; the closed-loop
 * generator drives steady background load (Sec. 6.3's 20 warm
 * functions experiment).
 *
 * TrafficEngine scales this to planet-shaped load (ROADMAP item 1):
 * heavy-tailed function populations with Zipf invocation skew (the
 * "Serverless in the Wild" Azure characterization), diurnal rate
 * modulation, and synchronized burst events — tenant flash crowds and
 * deploy storms — sampled by Lewis-Shedler thinning so arrival streams
 * stay deterministic per seed. TrafficWorkload drives a sequential
 * Cluster open-loop with it; cluster::ParallelFleet consumes the same
 * engine for its per-domain arrival loops.
 */

#ifndef VHIVE_CLUSTER_TRAFFIC_HH
#define VHIVE_CLUSTER_TRAFFIC_HH

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::cluster {

/**
 * Open-loop Poisson arrivals: invocations fire at exponential
 * inter-arrival times regardless of completion of earlier ones.
 */
class PoissonTraffic
{
  public:
    /**
     * @param mean_interarrival Mean gap between invocation arrivals.
     * @param count             Total invocations to issue.
     */
    PoissonTraffic(sim::Simulation &sim, Cluster &cluster,
                   std::string function, Duration mean_interarrival,
                   std::int64_t count, std::uint64_t seed);

    /** Drive the load; returns when all invocations completed. */
    sim::Task<void> run();

  private:
    sim::Task<void> fireOne();

    sim::Simulation &sim;
    Cluster &cluster;
    std::string function;
    Duration meanInterarrival;
    std::int64_t count;
    Rng rng;
};

/**
 * Closed-loop steady load: a fixed number of clients, each invoking
 * again after the previous response plus a think time. Keeps the
 * function's instances warm.
 */
class ClosedLoopTraffic
{
  public:
    ClosedLoopTraffic(sim::Simulation &sim, Cluster &cluster,
                      std::string function, int clients,
                      Duration think_time);

    /** Start the clients as detached tasks; they run until stop(). */
    void start();

    /**
     * Ask the clients to finish their current request and exit. The
     * clients still reference this object until they drain: callers
     * MUST keep it alive until stopAndDrain() completes. Destroying it
     * earlier panics, unless the simulation is tearing down.
     */
    void stop() { stopping = true; }

    /** Stop and wait until every client has exited. */
    sim::Task<void> stopAndDrain();

    /** Completed invocations across all clients. */
    std::int64_t completed() const { return _completed; }

  private:
    sim::Task<void> client();

    sim::Simulation &sim;
    Cluster &cluster;
    std::string function;
    int clients;
    Duration thinkTime;
    bool stopping = false;
    std::int64_t _completed = 0;
    std::unique_ptr<sim::Latch> drain;
};

/** Sinusoidal day/night modulation of every function's rate. */
struct DiurnalShape
{
    /** Cycle length (a simulated "day"; shorten it for benches). */
    Duration period = sec(86400);

    /**
     * Peak-to-mean swing in [0, 0.95]: rate(t) scales by
     * 1 + amplitude * sin(2*pi * (t/period + phase)). 0 disables.
     */
    double amplitude = 0;

    /** Phase offset as a fraction of the period. */
    double phase = 0;
};

/** Kinds of synchronized burst events. */
enum class BurstKind {
    /**
     * One tenant's traffic spikes together (retry storm, marketing
     * event): every function of @p tenant multiplies its rate.
     */
    FlashCrowd,

    /**
     * A coordinated rollout re-invokes a random fraction of the whole
     * population at once (membership drawn per burst from the seed).
     */
    DeployStorm,
};

/** One burst event, relative to traffic start. */
struct BurstSpec
{
    BurstKind kind = BurstKind::FlashCrowd;
    Duration start = sec(60);
    Duration duration = sec(30);

    /** Rate multiplier applied to affected functions while active. */
    double multiplier = 10.0;

    /** FlashCrowd: the tenant whose functions spike. */
    int tenant = 0;

    /** DeployStorm: fraction of the population redeployed. */
    double fraction = 0.25;
};

/**
 * Per-arrival uniform timer jitter of the periodic class, as a
 * fraction of the period.
 */
inline constexpr double kPeriodicJitter = 0.05;
static_assert(kPeriodicJitter >= 0 && kPeriodicJitter < 0.5);

/** Configuration of the planet-scale traffic model. */
struct TrafficConfig
{
    /** Deployed population size (thousands at generator scale). */
    int functions = 1000;

    /** Tenants the population is uniformly assigned to. */
    int tenants = 8;

    /**
     * Zipf exponent of the invocation-rate skew: function at
     * popularity rank r gets weight 1/(r+1)^s. ~1 matches the Azure
     * trace's heavy tail (a few hot functions, a long cold tail).
     */
    double zipfExponent = 1.1;

    /** Aggregate mean arrival rate across the population (1/sec). */
    double aggregateRps = 100.0;

    /** Simulated horizon arrivals are generated for. */
    Duration horizon = sec(600);

    DiurnalShape diurnal{};
    std::vector<BurstSpec> bursts;

    /**
     * Fraction of the population invoked on a timer (the cron-like
     * periodic class of the Azure characterization) instead of
     * Poisson arrivals. Membership, per-function period (log-uniform
     * in [periodicMinPeriod, periodicMaxPeriod]) and phase are drawn
     * from the seed; a timer neither flash-crowds nor follows the
     * diurnal curve, so periodic functions ignore burst and diurnal
     * modulation (and their Zipf rate share — aggregateRps then only
     * approximates the population total). 0 disables the class.
     */
    double periodicFraction = 0;
    Duration periodicMinPeriod = sec(60);
    Duration periodicMaxPeriod = sec(480);

    std::uint64_t seed = 0x7ea41c;

    /** Profile synthesis: as AzureWorkloadConfig::classMix. */
    std::vector<func::FunctionClass> classMix;
};

/**
 * Deterministic rate model + arrival sampler. Construction
 * precomputes per-function profiles ("tr_<i>_<base>"), tenant
 * assignment, Zipf base rates and burst memberships from the seed;
 * rateAt()/nextArrival() are then pure functions of (function, time)
 * and the caller's Rng stream, so every consumer — sequential driver,
 * parallel fleet, property tests — sees the same traffic.
 */
class TrafficEngine
{
  public:
    explicit TrafficEngine(TrafficConfig config);

    const TrafficConfig &config() const { return cfg; }

    int functionCount() const { return cfg.functions; }

    const func::FunctionProfile &profile(int fn) const
    {
        return profiles[static_cast<size_t>(fn)];
    }

    /** Tenant @p fn belongs to. */
    int tenantOf(int fn) const
    {
        return tenants[static_cast<size_t>(fn)];
    }

    /** Whether burst @p b applies to @p fn. */
    bool burstAffects(int b, int fn) const
    {
        return burstMembers[static_cast<size_t>(b)]
                           [static_cast<size_t>(fn)];
    }

    /** Zipf-weighted mean rate of @p fn (1/sec), bursts aside. */
    double baseRate(int fn) const
    {
        return baseRates[static_cast<size_t>(fn)];
    }

    /** Whether @p fn fires on a timer instead of Poisson arrivals. */
    bool isPeriodic(int fn) const
    {
        return periods[static_cast<size_t>(fn)] > 0;
    }

    /** Timer period of @p fn (0 when not periodic). */
    Duration periodOf(int fn) const
    {
        return periods[static_cast<size_t>(fn)];
    }

    /** Instantaneous rate of @p fn at @p t since traffic start. */
    double rateAt(int fn, Duration t) const;

    /** Upper bound on rateAt over all t (thinning envelope). */
    double peakRate(int fn) const;

    /** Integral of rateAt over [t0, t1) (for rate-accuracy tests). */
    double expectedArrivals(int fn, Duration t0, Duration t1) const;

    /**
     * Next arrival of @p fn strictly after @p now (relative to
     * traffic start), sampled by thinning against peakRate() from
     * @p rng. May exceed the horizon; the caller bounds the loop.
     */
    Duration nextArrival(int fn, Duration now, Rng &rng) const;

    /**
     * The Rng stream nextArrival() draws @p fn's arrivals from. Every
     * consumer (TrafficWorkload, ParallelFleet, an oracle replaying
     * the schedule) starts from it, so all see the same arrivals.
     */
    Rng arrivalStream(int fn) const;

  private:
    double diurnalFactor(Duration t) const;

    TrafficConfig cfg;
    std::vector<func::FunctionProfile> profiles;
    std::vector<int> tenants;
    std::vector<double> baseRates;
    std::vector<std::vector<bool>> burstMembers;
    std::vector<double> burstPeaks; ///< per-fn product of multipliers
    std::vector<Duration> periods;  ///< timer period, 0 = Poisson
    std::vector<Duration> phases;   ///< timer phase in [0, period)
};

/**
 * Drives a sequential Cluster with TrafficEngine arrivals, open-loop:
 * arrivals fire on schedule whether or not earlier invocations
 * completed, so flash crowds genuinely pile onto the shared data
 * plane (a closed loop would self-throttle exactly when contention
 * matters). Deploys the engine's profiles on construction. The run's
 * counts and latencies are the cluster's: Cluster::fleetStats().
 */
class TrafficWorkload
{
  public:
    TrafficWorkload(sim::Simulation &sim, Cluster &cluster,
                    TrafficConfig config);

    const TrafficEngine &engine() const { return eng; }

    /** Run to completion (all fired invocations finished). */
    sim::Task<void> run();

  private:
    /** Fires each arrival of @p fn as a task joined by @p fires. */
    sim::Task<void> arrivalLoop(int fn, sim::Latch *fires);
    sim::Task<void> fireOne(int fn);

    sim::Simulation &sim;
    Cluster &cluster;
    TrafficEngine eng;
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_TRAFFIC_HH

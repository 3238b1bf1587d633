/**
 * @file
 * Production-like workload synthesis following the Azure Functions
 * characterization the paper builds its motivation on (Sec. 2.1,
 * citing Shahrad et al.): most functions are invoked rarely (90%
 * less than once per minute), run shortly, and arrive unpredictably.
 * The generator deploys N functions whose mean inter-arrival times
 * are log-uniform over a configurable range and drives independent
 * Poisson arrivals for a simulated horizon while sampling the
 * fleet's resident memory.
 */

#ifndef VHIVE_CLUSTER_AZURE_WORKLOAD_HH
#define VHIVE_CLUSTER_AZURE_WORKLOAD_HH

#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "func/profile.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::cluster {

/** Configuration of the synthetic production mix. */
struct AzureWorkloadConfig
{
    /** Number of deployed functions. */
    int functions = 12;

    /** Shortest mean inter-arrival in the mix. */
    Duration minInterarrival = sec(20);

    /** Longest mean inter-arrival in the mix (sporadic tail). */
    Duration maxInterarrival = sec(900);

    /** Simulated horizon. */
    Duration horizon = sec(1800);

    /** Workload synthesis seed. */
    std::uint64_t seed = 0xa27e;

    /**
     * Profile synthesis (see mixProfile). Inter-arrival synthesis is
     * the same either way (one uniform per function from the
     * "azure-workload" stream), so switching a mix between the pool
     * and classes perturbs nothing else. Empty (default) keeps the
     * historical pool-based mix bit-identical.
     */
    std::vector<func::FunctionClass> classMix;
};

/**
 * Profile of function @p i of a synthesized mix (before the caller
 * prefixes its name). With @p class_mix empty it cycles the
 * low/medium-weight FunctionBench functions, so the mix resembles the
 * short-running production population; otherwise it draws
 * func::makeClassProfile(class_mix[i % size], seed, i), cycling the
 * list. Shared by the Azure mix and TrafficEngine.
 */
func::FunctionProfile mixProfile(
    const std::vector<func::FunctionClass> &class_mix,
    std::uint64_t seed, int i);

/** One synthesized function of the Azure mix. */
struct AzureMixEntry
{
    func::FunctionProfile profile;
    Duration meanInterarrival;
};

/**
 * Synthesize the deterministic function mix @p cfg describes: profiles
 * come from mixProfile and mean inter-arrivals are
 * log-uniform over [minInterarrival, maxInterarrival], all driven by
 * Rng(cfg.seed, "azure-workload") in deployment order. Shared by
 * AzureWorkload (sequential cluster) and cluster::ParallelFleet so the
 * two drive bit-identical mixes.
 */
std::vector<AzureMixEntry> synthesizeAzureMix(
    const AzureWorkloadConfig &cfg);

/**
 * Arrival stream of function @p name in the mix seeded @p seed: the
 * exponential inter-arrival gaps are drawn from it lazily, one per
 * arrival. AzureWorkload and ParallelFleet draw the same stream.
 */
Rng azureArrivalStream(std::uint64_t seed, const std::string &name);

/**
 * What only the workload itself measures: the resident-memory
 * integral, sampled every 5 simulated seconds. Invocation counts and
 * latencies are the cluster's: Cluster::fleetStats().
 */
struct AzureWorkloadResult
{
    double avgResidentMb = 0;  ///< time-averaged fleet memory
    double memoryGbMin = 0;    ///< integral of resident memory
};

/**
 * Deploys the mix onto @p cluster and drives it. The cluster must be
 * freshly constructed (no prior deployments); the run starts the
 * autoscaler and stops it before returning.
 */
class AzureWorkload
{
  public:
    AzureWorkload(sim::Simulation &sim, Cluster &cluster,
                  AzureWorkloadConfig config = AzureWorkloadConfig{});

    /** Names of the synthesized functions (after construction). */
    const std::vector<std::string> &functionNames() const
    {
        return names;
    }

    /** Run the workload to completion and return the memory
     * integral. */
    sim::Task<AzureWorkloadResult> run();

  private:
    sim::Task<void> arrivalLoop(int idx);
    sim::Task<void> memorySampler();

    sim::Simulation &sim;
    Cluster &cluster;
    AzureWorkloadConfig cfg;
    std::vector<std::string> names;
    std::vector<Duration> interarrival;
    bool samplerStopping = false;
    double memIntegralMbSec = 0;
    Duration sampledFor = 0;
};

} // namespace vhive::cluster

#endif // VHIVE_CLUSTER_AZURE_WORKLOAD_HH

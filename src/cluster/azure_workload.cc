#include "cluster/azure_workload.hh"

#include <array>
#include <cmath>

#include "func/profile.hh"
#include "util/logging.hh"

namespace vhive::cluster {

namespace {

/** Indices into func::functionBench() the pool-based mix cycles. */
constexpr std::array<int, 7> kMixProfilePool = {0, 1, 2, 3, 4, 5, 7};
static_assert(!kMixProfilePool.empty());

/** Resident-memory sampling period of the GB-minute integral. */
constexpr Duration kSamplePeriod = sec(5);

} // namespace

func::FunctionProfile
mixProfile(const std::vector<func::FunctionClass> &class_mix,
           std::uint64_t seed, int i)
{
    auto idx = static_cast<size_t>(i);
    // A class-generated profile comes from its own named sub-stream,
    // so the callers' streams see exactly the draws they always did.
    if (!class_mix.empty())
        return func::makeClassProfile(class_mix[idx % class_mix.size()],
                                      seed, i);
    return func::functionBench()[static_cast<size_t>(
        kMixProfilePool[idx % kMixProfilePool.size()])];
}

Rng
azureArrivalStream(std::uint64_t seed, const std::string &name)
{
    return Rng(seed, "azure-arrivals/" + name);
}

std::vector<AzureMixEntry>
synthesizeAzureMix(const AzureWorkloadConfig &cfg)
{
    VHIVE_ASSERT(cfg.functions >= 1);
    VHIVE_ASSERT(cfg.minInterarrival > 0 &&
                 cfg.maxInterarrival >= cfg.minInterarrival);

    Rng rng(cfg.seed, "azure-workload");
    double log_min =
        std::log(static_cast<double>(cfg.minInterarrival));
    double log_max =
        std::log(static_cast<double>(cfg.maxInterarrival));
    std::vector<AzureMixEntry> mix;
    mix.reserve(static_cast<size_t>(cfg.functions));
    for (int i = 0; i < cfg.functions; ++i) {
        func::FunctionProfile p = mixProfile(cfg.classMix, cfg.seed, i);
        p.name = "az_" + std::to_string(i) + "_" + p.name;

        // Log-uniform inter-arrival: most functions end up sporadic,
        // matching the Azure study's long tail.
        double u = rng.uniform();
        mix.push_back(AzureMixEntry{
            std::move(p),
            static_cast<Duration>(
                std::exp(log_min + u * (log_max - log_min)))});
    }
    return mix;
}

AzureWorkload::AzureWorkload(sim::Simulation &sim, Cluster &cluster,
                             AzureWorkloadConfig config)
    : sim(sim), cluster(cluster), cfg(std::move(config))
{
    for (auto &entry : synthesizeAzureMix(cfg)) {
        names.push_back(entry.profile.name);
        cluster.deploy(entry.profile);
        interarrival.push_back(entry.meanInterarrival);
    }
}

sim::Task<void>
AzureWorkload::arrivalLoop(int idx)
{
    const std::string &name = names[static_cast<size_t>(idx)];
    Rng local = azureArrivalStream(cfg.seed, name);
    Duration mean = interarrival[static_cast<size_t>(idx)];
    Time deadline = sim.now() + cfg.horizon;
    while (true) {
        Duration gap = static_cast<Duration>(
            local.exponential(static_cast<double>(mean)));
        if (sim.now() + gap >= deadline)
            break;
        co_await sim.delay(gap);
        (void)co_await cluster.invoke(name);
    }
}

sim::Task<void>
AzureWorkload::memorySampler()
{
    while (!samplerStopping) {
        co_await sim.delay(kSamplePeriod);
        memIntegralMbSec += toMiB(cluster.residentBytes()) *
                            (static_cast<double>(kSamplePeriod) /
                             static_cast<double>(kSecond));
        sampledFor += kSamplePeriod;
    }
}

sim::Task<AzureWorkloadResult>
AzureWorkload::run()
{
    co_await cluster.prepareAllSnapshots();
    co_await cluster.preRecordWorkingSets(names);

    cluster.startAutoscaler();
    sim.spawn(memorySampler());

    sim::Latch done(sim, 0);
    for (int i = 0; i < cfg.functions; ++i)
        done.spawn(arrivalLoop(i));
    co_await done.wait();

    samplerStopping = true;
    cluster.stopAutoscaler();

    AzureWorkloadResult result;
    result.avgResidentMb =
        sampledFor > 0 ? memIntegralMbSec /
                             (static_cast<double>(sampledFor) /
                              static_cast<double>(kSecond))
                       : 0.0;
    result.memoryGbMin = memIntegralMbSec / 1024.0 / 60.0;
    co_return result;
}

} // namespace vhive::cluster

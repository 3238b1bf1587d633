/**
 * @file
 * Deterministic fault injection. A FaultPlan is a seeded schedule of
 * fault windows in simulated time, keyed by (FaultKind, target): the
 * data-plane components a plan is installed on (net::ObjectStore,
 * cluster::SnapshotRegistry, core::Orchestrator) consult it at their
 * hook points and degrade accordingly — an unreachable store stalls
 * requests until the outage lifts, a latency storm multiplies transfer
 * times, stragglers slow individual GETs, request errors force paid
 * retries, and a worker crash tears a cold start down mid-flight so
 * the cluster layer retries elsewhere.
 *
 * Determinism: every probabilistic decision draws from a named Rng
 * sub-stream derived from (plan seed, kind, target), and draws happen
 * only while a window is active — so a plan whose windows never open
 * perturbs nothing, and the same (seed, plan, workload) triple always
 * produces bit-identical histories. Components with no plan installed
 * (the default) skip the hooks entirely: fault-free runs are
 * bit-identical to builds without this layer.
 */

#ifndef VHIVE_SIM_FAULT_HH
#define VHIVE_SIM_FAULT_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::sim {

/** The failure modes the data plane knows how to inject. */
enum class FaultKind
{
    /**
     * Object store unreachable: requests issued inside the window
     * stall until it closes (client retry-with-backoff collapses to
     * waiting out the outage in simulated time), then proceed.
     */
    StoreOutage,

    /**
     * Degraded store service: every affected request's latency is
     * multiplied by the window's magnitude.
     */
    LatencyStorm,

    /**
     * Tail-latency stragglers: each affected request independently
     * slows down by the window's magnitude with the window's
     * probability (the classic "1-in-N GETs is 10x slower" shape the
     * hedged-request mitigation targets).
     */
    Straggler,

    /**
     * Per-request error rate: an affected request fails after a
     * partial transfer and is retried — it completes, but pays the
     * aborted attempt's round trip, service cost and half the
     * streaming time again per error.
     */
    RequestError,

    /**
     * Snapshot staging unavailable: a staging pass entering the
     * window (SnapshotRegistry::stage, the registry's store-side
     * pass) stalls until it closes. Both fleet engines honour it:
     * Cluster through its installed plan, ParallelFleet through the
     * store domain's plan built from storeFaults.
     */
    StagingOutage,

    /**
     * Worker crash: a cold start (or a staging pass in
     * SnapshotRegistry::stage, in either fleet engine) rolled inside
     * the window aborts after magnitude milliseconds of lost work;
     * instances are torn down, partially taken chunk references are
     * released, and the caller retries.
     */
    WorkerCrash,
};

/** Human-readable kind name (also the Rng sub-stream prefix). */
const char *faultKindName(FaultKind kind);

/** One scheduled fault window in simulated time. */
struct FaultWindow
{
    /** Window start (inclusive, ns of simulated time). */
    Time start = 0;

    /** Window end (exclusive). */
    Time end = 0;

    /**
     * Kind-specific intensity: latency multiplier (LatencyStorm,
     * Straggler) or milliseconds of lost work (WorkerCrash). Unused
     * by the outage kinds.
     */
    double magnitude = 1.0;

    /**
     * Per-event chance the fault fires on an event inside the window
     * (Bernoulli, drawn from the plan's (kind, target) stream).
     */
    double probability = 1.0;
};

/** A fault schedule for one kind against one target. */
struct FaultSpec
{
    FaultKind kind = FaultKind::StoreOutage;

    /**
     * Which hook point the spec applies to. Hook points identify
     * themselves with registry-style keys ("store/shared",
     * "store/worker/0", "worker/3", "staging/az_0_helloworld"); a
     * spec target of "*" matches everything and a trailing '*'
     * matches by prefix (e.g. every staging key).
     */
    std::string target = "*";

    std::vector<FaultWindow> windows;
};

/** Counters of faults actually delivered, readable by tests/benches. */
struct FaultStats
{
    /** Requests stalled by a StoreOutage window. */
    std::int64_t outageStalls = 0;

    /** Total simulated time requests spent stalled in outages. */
    Duration outageStallTime = 0;

    /** Requests slowed by a LatencyStorm window. */
    std::int64_t stormHits = 0;

    /** Requests turned into stragglers. */
    std::int64_t stragglers = 0;

    /** Request errors injected (each one paid a retry). */
    std::int64_t requestErrors = 0;

    /** Staging passes stalled by a StagingOutage window. */
    std::int64_t stagingStalls = 0;

    /** Cold starts / staging passes aborted by a WorkerCrash. */
    std::int64_t workerCrashes = 0;
};

/**
 * A seeded, registry-keyed fault schedule. Build one, add() specs,
 * install it on the components under test (they keep a raw pointer;
 * the plan must outlive them or be detached first). Thread-safety:
 * none — a plan must stay within one simulation domain. For the
 * parallel kernel, build one plan per domain from the same specs
 * (see cluster::ParallelFleetConfig::storeFaults).
 */
class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed = 0) : _seed(seed) {}

    /** Append one fault spec. */
    void add(FaultSpec spec) { _specs.push_back(std::move(spec)); }

    /**
     * The window of (kind, target) active at @p now, or nullptr.
     * Non-consuming: draws nothing, so probes are free.
     */
    const FaultWindow *windowFor(FaultKind kind,
                                 std::string_view target,
                                 Time now) const;

    /**
     * Roll the fault: when a (kind, target) window is active at
     * @p now, draw Bernoulli(window.probability) from the stream
     * named after (kind, target) and return the window when the
     * fault fires. Returns nullptr (and draws nothing) outside all
     * windows, so inactive plans never perturb the Rng state.
     */
    const FaultWindow *roll(FaultKind kind, std::string_view target,
                            Time now);

    FaultStats &stats() { return _stats; }
    const FaultStats &stats() const { return _stats; }

    const std::vector<FaultSpec> &specs() const { return _specs; }
    std::uint64_t seed() const { return _seed; }

    /** True when no spec has any window at or after @p now. */
    bool exhausted(Time now) const;

  private:
    Rng &streamFor(FaultKind kind, std::string_view target);

    std::uint64_t _seed;
    std::vector<FaultSpec> _specs;
    std::map<std::string, Rng> _streams;
    FaultStats _stats;
};

} // namespace vhive::sim

#endif // VHIVE_SIM_FAULT_HH

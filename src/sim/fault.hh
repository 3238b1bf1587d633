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
 * the cluster layer retries elsewhere. Each hook counts the faults it
 * delivers in its own stats (net::ObjectStoreStats,
 * core::FunctionStats::crashes, the registry's staging counters).
 *
 * Determinism: a plan is immutable after setup and every draw is a
 * pure function of (plan seed, kind, target, request key, attempt),
 * where the request key names the request from identities its caller
 * already holds — for a store request (op, placement key, offset,
 * bytes, instant). One request's fault therefore does not depend on
 * how many requests rolled before it, and requests identical in all
 * of those share one draw. Draws happen only while a window is
 * active, so a plan whose windows never open perturbs nothing.
 * Components with no plan installed (the default) skip the hooks
 * entirely: fault-free runs are bit-identical to builds without this
 * layer.
 */

#ifndef VHIVE_SIM_FAULT_HH
#define VHIVE_SIM_FAULT_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

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
     * Cluster through its installed plan, ParallelFleet through
     * ParallelFleetConfig::faults.
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
     * (Bernoulli, keyed by the event's request; 1 draws nothing).
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

/**
 * Fold @p parts (identities a hook already holds: name hashes,
 * instants, offsets) into one request key for FaultPlan::roll.
 */
std::uint64_t faultRequestKey(std::initializer_list<std::uint64_t> parts);

/**
 * A seeded, registry-keyed fault schedule. Build one, add() specs,
 * install it on the components under test (they keep a const pointer;
 * the plan must outlive them or be detached first). A plan is
 * immutable after setup and rolls are pure, so one plan can be shared
 * across every simulation domain and every thread of the parallel
 * kernel (see cluster::ParallelFleetConfig::faults).
 */
class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed = 0) : _seed(seed) {}

    /** Append one fault spec (setup only, before installing). */
    void add(FaultSpec spec) { _specs.push_back(std::move(spec)); }

    /** The window of (kind, target) active at @p now, or nullptr. */
    const FaultWindow *windowFor(FaultKind kind,
                                 std::string_view target,
                                 Time now) const;

    /**
     * Roll the fault: when a (kind, target) window is active at
     * @p now, fire with the window's probability and return the
     * window, else nullptr. The draw hashes (seed, kind, target,
     * @p request, @p attempt) — the same arguments always give the
     * same answer — and a probability-1 window fires without one.
     * Loops that re-roll one request (outage stalls, error retries)
     * pass their iteration as @p attempt.
     */
    const FaultWindow *roll(FaultKind kind, std::string_view target,
                            Time now, std::uint64_t request,
                            int attempt = 0) const;

  private:
    std::uint64_t _seed;
    std::vector<FaultSpec> _specs;
};

} // namespace vhive::sim

#endif // VHIVE_SIM_FAULT_HH

#include "cluster/routing_policy.hh"

#include "util/logging.hh"
#include "util/rng.hh"

namespace vhive::cluster {

const char *
routingPolicyName(RoutingPolicyKind kind)
{
    switch (kind) {
      case RoutingPolicyKind::WarmFirst: return "warm-first";
      case RoutingPolicyKind::LeastLoaded: return "least-loaded";
      case RoutingPolicyKind::LocalityHash: return "locality-hash";
    }
    return "?";
}

int
WarmFirstPolicy::route(const RouteContext &ctx)
{
    const FleetView &fleet = ctx.fleet;
    int n = fleet.workerCount();
    for (int i = 0; i < n; ++i) {
        if (fleet.idleInstances(i, ctx.name) > 0)
            return i;
    }
    // No warm instance anywhere: rotate. The rotation starts at worker
    // 0 (the cursor used to pre-increment, so worker 0 was never the
    // first round-robin pick of a fresh cluster).
    int pick = rrCursor;
    rrCursor = (rrCursor + 1) % n;
    return pick;
}

int
LeastLoadedPolicy::route(const RouteContext &ctx)
{
    const FleetView &fleet = ctx.fleet;
    int n = fleet.workerCount();
    int best = 0;
    std::int64_t best_load = fleet.inFlight(0);
    bool best_warm = fleet.idleInstances(0, ctx.name) > 0;
    for (int i = 1; i < n; ++i) {
        std::int64_t load = fleet.inFlight(i);
        bool warm = fleet.idleInstances(i, ctx.name) > 0;
        if (load < best_load || (load == best_load && warm && !best_warm)) {
            best = i;
            best_load = load;
            best_warm = warm;
        }
    }
    return best;
}

int
LocalityHashPolicy::homeWorker(const std::string &name, int workers)
{
    VHIVE_ASSERT(workers >= 1);
    return static_cast<int>(hashName(name) %
                            static_cast<std::uint64_t>(workers));
}

int
LocalityHashPolicy::route(const RouteContext &ctx)
{
    const FleetView &fleet = ctx.fleet;
    int n = fleet.workerCount();
    int home = homeWorker(ctx.name, n);
    // Warm instance anywhere on the ring, nearest to home, wins.
    for (int k = 0; k < n; ++k) {
        int w = (home + k) % n;
        if (fleet.idleInstances(w, ctx.name) > 0)
            return w;
    }
    // Cold start. With chunk-aware scoring enabled, weigh each
    // unsaturated candidate's resident-chunk overlap against its ring
    // distance from home: a worker already holding most of the
    // function's chunks (pulled by other functions) restores almost
    // locally even though it is not the hash home.
    if (overlapWeight > 0.0) {
        int best = -1;
        double best_score = 0.0;
        for (int k = 0; k < n; ++k) {
            int w = (home + k) % n;
            if (fleet.inFlight(w) >= kSpillInFlight)
                continue;
            double score =
                overlapWeight * fleet.chunkResidency(w, ctx.name) -
                static_cast<double>(k) / static_cast<double>(n);
            if (best < 0 || score > best_score) {
                best = w;
                best_score = score;
            }
        }
        if (best >= 0)
            return best;
        return home;
    }
    // Historical behaviour: stay home so the artifact tiers
    // concentrate, spill along the ring only past saturated workers.
    for (int k = 0; k < n; ++k) {
        int w = (home + k) % n;
        if (fleet.inFlight(w) < kSpillInFlight)
            return w;
    }
    return home;
}

RoutingPolicyRegistry::RoutingPolicyRegistry()
{
    registerPolicy(RoutingPolicyKind::WarmFirst,
                   std::make_unique<WarmFirstPolicy>());
    registerPolicy(RoutingPolicyKind::LeastLoaded,
                   std::make_unique<LeastLoadedPolicy>());
    registerPolicy(RoutingPolicyKind::LocalityHash,
                   std::make_unique<LocalityHashPolicy>());
}

RoutingPolicy &
RoutingPolicyRegistry::policyFor(RoutingPolicyKind kind) const
{
    RoutingPolicy *policy = find(kind);
    if (policy == nullptr)
        fatal("no RoutingPolicy registered for kind %d",
              static_cast<int>(kind));
    return *policy;
}

RoutingPolicy *
RoutingPolicyRegistry::find(RoutingPolicyKind kind) const
{
    auto it = policies.find(kind);
    return it == policies.end() ? nullptr : it->second.get();
}

void
RoutingPolicyRegistry::registerPolicy(
    RoutingPolicyKind kind, std::unique_ptr<RoutingPolicy> policy)
{
    VHIVE_ASSERT(policy != nullptr);
    policies[kind] = std::move(policy);
}

std::vector<RoutingPolicyKind>
RoutingPolicyRegistry::kinds() const
{
    std::vector<RoutingPolicyKind> out;
    out.reserve(policies.size());
    for (const auto &entry : policies)
        out.push_back(entry.first);
    return out;
}

} // namespace vhive::cluster

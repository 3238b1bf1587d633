/**
 * @file
 * Tests for the parallel DES kernel (sim/parallel.hh) and the
 * multi-core fleet harness (cluster/parallel_fleet.hh): cross-port
 * latency/ordering semantics, and — the headline contract — bit
 * identity of simulated results across 1/2/4/8 sim threads.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cluster/parallel_fleet.hh"
#include "net/placement_table.hh"
#include "sim/parallel.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace vhive::sim {
namespace {

using EventLog = std::vector<std::tuple<int, Time, int>>;

Task<void>
pingSender(Simulation &sim, CrossPort<int> &out, int count,
           Duration gap)
{
    for (int i = 0; i < count; ++i) {
        co_await sim.delay(gap);
        out.send(i);
    }
}

Task<void>
pingReceiver(Simulation &sim, CrossPort<int> &in, int count,
             EventLog &log, int domain)
{
    for (int i = 0; i < count; ++i) {
        int v = co_await in.recv();
        log.emplace_back(domain, sim.now(), v);
    }
}

TEST(CrossPort, DeliversAfterLatencyInOrder)
{
    ParallelKernel k(2, 1);
    CrossPort<int> port(k, k.domain(0), k.domain(1), usec(500));
    EventLog log;
    k.sim(0).spawn(pingSender(k.sim(0), port, 3, msec(1)));
    k.sim(1).spawn(pingReceiver(k.sim(1), port, 3, log, 1));
    k.run();

    ASSERT_EQ(log.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(std::get<2>(log[static_cast<size_t>(i)]), i);
        // Sent at (i+1) ms, delivered one port latency later.
        EXPECT_EQ(std::get<1>(log[static_cast<size_t>(i)]),
                  msec(i + 1) + usec(500));
    }
}

TEST(CrossPort, EarlyReceiverParksUntilDeliveryInstant)
{
    ParallelKernel k(2, 1);
    CrossPort<int> port(k, k.domain(0), k.domain(1), msec(2));
    EventLog log;
    // Receiver is waiting long before the sender fires.
    k.sim(1).spawn(pingReceiver(k.sim(1), port, 1, log, 1));
    k.sim(0).spawn(pingSender(k.sim(0), port, 1, msec(5)));
    k.run();

    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(std::get<1>(log[0]), msec(7)); // send at 5ms + 2ms hop
}

/**
 * A ring of domains passing an incrementing token: every hop crosses
 * a domain boundary, so window synchronization is exercised heavily.
 */
Task<void>
ringNode(Simulation &sim, CrossPort<int> &in, CrossPort<int> &out,
         int hops, EventLog &log, int domain)
{
    while (true) {
        int v = co_await in.recv();
        log.emplace_back(domain, sim.now(), v);
        if (v >= hops)
            co_return;
        co_await sim.delay(usec(50 + 13 * (v % 7)));
        out.send(v + 1);
    }
}

EventLog
runTokenRing(int domains, int threads, int hops)
{
    ParallelKernel k(domains, threads);
    std::vector<std::unique_ptr<CrossPort<int>>> ports;
    for (int d = 0; d < domains; ++d) {
        ports.push_back(std::make_unique<CrossPort<int>>(
            k, k.domain(d), k.domain((d + 1) % domains), usec(200)));
    }
    EventLog log;
    for (int d = 0; d < domains; ++d) {
        int prev = (d + domains - 1) % domains;
        k.sim(d).spawn(ringNode(k.sim(d), *ports[static_cast<size_t>(prev)],
                                *ports[static_cast<size_t>(d)], hops,
                                log, d));
    }
    // Kick the token into domain 0 (pre-run send from the last
    // domain's port, at time 0).
    ports.back()->send(0);
    k.run();
    return log;
}

TEST(ParallelKernel, TokenRingIsIdenticalAcrossThreadCounts)
{
    // NOTE: the log is appended by different domains; with >1 thread
    // appends could race, so the ring is serial by construction (one
    // token). That makes the log a total order and keeps the test
    // race-free under TSan.
    EventLog ref = runTokenRing(4, 1, 64);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(std::get<2>(ref.back()), 64);
    for (int threads : {2, 4, 8}) {
        EventLog log = runTokenRing(4, threads, 64);
        EXPECT_EQ(log, ref) << "threads=" << threads;
    }
}

/**
 * Many independent workers with private timers plus cross-traffic to
 * a hub domain; checks total event counts and the hub's observed
 * message order are thread-count independent.
 */
Task<void>
chatterWorker(Simulation &sim, CrossPort<int> &out, int id, int msgs)
{
    for (int i = 0; i < msgs; ++i) {
        // Do some purely local work (events that should run in
        // parallel windows).
        for (int j = 0; j < 5; ++j)
            co_await sim.delay(usec(30 + ((id * 7 + i * 3 + j) % 11)));
        out.send(id * 1000 + i);
    }
}

Task<void>
chatterHub(Simulation &sim,
           std::vector<std::unique_ptr<CrossPort<int>>> &in, int total,
           EventLog &log)
{
    // Round-robin over per-worker ports: hub consumes exactly the
    // number of messages each worker will send.
    int per = total / static_cast<int>(in.size());
    for (int i = 0; i < per; ++i) {
        for (auto &port : in) {
            int v = co_await port->recv();
            log.emplace_back(0, sim.now(), v);
        }
    }
}

std::pair<EventLog, std::int64_t>
runChatter(int workers, int threads, int msgs)
{
    ParallelKernel k(workers + 1, threads);
    std::vector<std::unique_ptr<CrossPort<int>>> ports;
    for (int w = 0; w < workers; ++w)
        ports.push_back(std::make_unique<CrossPort<int>>(
            k, k.domain(w + 1), k.domain(0), usec(500)));
    EventLog log;
    for (int w = 0; w < workers; ++w)
        k.sim(w + 1).spawn(
            chatterWorker(k.sim(w + 1), *ports[static_cast<size_t>(w)],
                          w, msgs));
    k.sim(0).spawn(chatterHub(k.sim(0), ports, workers * msgs, log));
    k.run();
    return {std::move(log), k.totalEventsProcessed()};
}

TEST(ParallelKernel, ChatterIsIdenticalAcrossThreadCounts)
{
    auto [ref_log, ref_events] = runChatter(6, 1, 20);
    ASSERT_EQ(ref_log.size(), 6u * 20u);
    for (int threads : {2, 4, 8}) {
        auto [log, events] = runChatter(6, threads, 20);
        EXPECT_EQ(log, ref_log) << "threads=" << threads;
        EXPECT_EQ(events, ref_events) << "threads=" << threads;
    }
}

TEST(ParallelKernel, SoloFastPathCoversSingleActiveDomain)
{
    // One domain does heavy local work; the other is quiet until a
    // late message arrives. The kernel should take the solo fast path
    // for most of the run (covered by stats), and the late delivery
    // must still land exactly on time.
    ParallelKernel k(2, 1);
    CrossPort<int> port(k, k.domain(0), k.domain(1), usec(500));
    EventLog log;
    k.sim(0).spawn(pingSender(k.sim(0), port, 1, msec(50)));
    k.sim(1).spawn(pingReceiver(k.sim(1), port, 1, log, 1));
    k.run();

    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(std::get<1>(log[0]), msec(50) + usec(500));
    EXPECT_GT(k.stats().soloWindows, 0);
}

/**
 * Ring exchange with a long solo stretch in the middle: every domain
 * sends @p rounds values to its ring successor, then domain 0 alone
 * runs @p solo_events local events while the others wait for its "go",
 * then the ring exchanges @p rounds more. Each domain logs what it
 * receives into its own row, so the rows need no locking.
 */
struct ParkRing {
    ParallelKernel kernel;
    std::vector<std::unique_ptr<CrossPort<int>>> ring;
    std::vector<std::unique_ptr<CrossPort<int>>> go; // 0 -> d, d >= 1
    std::vector<std::vector<std::pair<Time, int>>> received;

    ParkRing(int domains, int threads)
        : kernel(domains, threads),
          received(static_cast<std::size_t>(domains))
    {
        for (int d = 0; d < domains; ++d)
            ring.push_back(std::make_unique<CrossPort<int>>(
                kernel, kernel.domain(d),
                kernel.domain((d + 1) % domains), usec(100)));
        for (int d = 1; d < domains; ++d)
            go.push_back(std::make_unique<CrossPort<int>>(
                kernel, kernel.domain(0), kernel.domain(d), usec(100)));
    }
};

Task<void>
parkRingSender(ParkRing &r, int d, int rounds, int solo_events)
{
    Simulation &sim = r.kernel.sim(d);
    CrossPort<int> &out = *r.ring[static_cast<std::size_t>(d)];
    for (int i = 0; i < rounds; ++i) {
        co_await sim.delay(usec(20 + (d * 7 + i) % 13));
        out.send(i);
    }
    if (d == 0) {
        for (int i = 0; i < solo_events; ++i)
            co_await sim.delay(100 * kNanosecond);
        for (auto &port : r.go)
            port->send(1);
    } else {
        co_await r.go[static_cast<std::size_t>(d - 1)]->recv();
    }
    for (int i = 0; i < rounds; ++i) {
        co_await sim.delay(usec(20 + (d * 5 + i) % 11));
        out.send(rounds + i);
    }
}

Task<void>
parkRingReceiver(ParkRing &r, int d, int count)
{
    int domains = r.kernel.domainCount();
    CrossPort<int> &in =
        *r.ring[static_cast<std::size_t>((d + domains - 1) % domains)];
    auto &row = r.received[static_cast<std::size_t>(d)];
    for (int i = 0; i < count; ++i) {
        int v = co_await in.recv();
        row.emplace_back(r.kernel.sim(d).now(), v);
    }
}

/** Everything thread count must not change about one ParkRing run. */
struct ParkRingOutcome {
    std::vector<std::vector<std::pair<Time, int>>> received;
    std::vector<Time> clocks;
    std::vector<std::int64_t> events;
    ParallelKernel::Stats stats;
};

ParkRingOutcome
runParkRing(int domains, int threads, int rounds, int solo_events)
{
    ParkRing r(domains, threads);
    for (int d = 0; d < domains; ++d) {
        r.kernel.sim(d).spawn(parkRingSender(r, d, rounds, solo_events));
        r.kernel.sim(d).spawn(parkRingReceiver(r, d, 2 * rounds));
    }
    r.kernel.run();
    ParkRingOutcome o{std::move(r.received), {}, {}, r.kernel.stats()};
    for (int d = 0; d < domains; ++d) {
        o.clocks.push_back(r.kernel.sim(d).now());
        o.events.push_back(r.kernel.sim(d).eventsProcessed());
    }
    return o;
}

TEST(ParallelKernel, PoolParksThroughSoloStretchAndResumes)
{
    // Domain 0's solo stretch of 100k events outlasts the pool's spin
    // budget in host time, so pool threads park; the second ring
    // phase must wake them and run exactly as one thread does.
    const int domains = 5, rounds = 1000, solo = 100000;
    ParkRingOutcome ref = runParkRing(domains, 1, rounds, solo);
    for (const auto &row : ref.received)
        ASSERT_EQ(row.size(), 2u * rounds);
    EXPECT_GE(ref.events[0], solo);
    EXPECT_GT(ref.stats.soloWindows, 0);
    // A window is one 100 us port latency wide and spans about four
    // sends per domain, so each phase runs ~250 pool windows.
    EXPECT_GT(ref.stats.multiDomainWindows, 400);
    for (int threads : {2, 4, 8}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        ParkRingOutcome o = runParkRing(domains, threads, rounds, solo);
        EXPECT_EQ(o.received, ref.received);
        EXPECT_EQ(o.clocks, ref.clocks);
        EXPECT_EQ(o.events, ref.events);
        EXPECT_EQ(o.stats.windows, ref.stats.windows);
        EXPECT_EQ(o.stats.multiDomainWindows,
                  ref.stats.multiDomainWindows);
        EXPECT_EQ(o.stats.soloWindows, ref.stats.soloWindows);
        EXPECT_EQ(o.stats.messages, ref.stats.messages);
    }
}

/** Domain 0 runs @p events local events after the ring has drained. */
Task<void>
soloTail(Simulation &sim, int events)
{
    co_await sim.delay(msec(100));
    for (int i = 0; i < events; ++i)
        co_await sim.delay(100 * kNanosecond);
}

TEST(ParallelKernel, ShutdownWhileSpinningOrParked)
{
    // ~100 kernel lifetimes per thread count. Even iterations end
    // right after their last multi-domain window, so the destructor
    // meets a spinning pool; odd ones end in a solo tail longer than
    // the spin budget, so it meets a parked one. Each run must still
    // match the single-threaded reference.
    auto runOnce = [](int threads, bool parked) {
        ParallelKernel k(3, threads);
        std::vector<std::unique_ptr<CrossPort<int>>> ports;
        for (int d = 0; d < 3; ++d)
            ports.push_back(std::make_unique<CrossPort<int>>(
                k, k.domain(d), k.domain((d + 1) % 3), usec(100)));
        // Every domain has local timers until its last send, so the
        // windows up to there all run on the pool.
        for (int d = 0; d < 3; ++d)
            k.sim(d).spawn(chatterWorker(
                k.sim(d), *ports[static_cast<std::size_t>(d)], d, 8));
        if (parked)
            k.sim(0).spawn(soloTail(k.sim(0), 100000));
        k.run();
        return std::pair{k.totalEventsProcessed(), k.stats().windows};
    };
    const auto ref_spinning = runOnce(1, false);
    const auto ref_parked = runOnce(1, true);
    for (int threads : {4, 8}) {
        for (int i = 0; i < 100; ++i) {
            bool parked = i % 2 == 1;
            EXPECT_EQ(runOnce(threads, parked),
                      parked ? ref_parked : ref_spinning)
                << "threads=" << threads << " iteration=" << i;
        }
    }
}

} // namespace
} // namespace vhive::sim

namespace vhive::cluster {
namespace {

ParallelFleetResult
runFleetScenario(int workers, int threads)
{
    ParallelFleetConfig cfg;
    cfg.workers = workers;
    cfg.simThreads = threads;
    cfg.coldStartMode = core::ColdStartMode::Reap;
    cfg.keepAlive = sec(30);
    cfg.routingPolicy = RoutingPolicyKind::LocalityHash;
    cfg.workload.functions = 6;
    cfg.workload.minInterarrival = sec(2);
    cfg.workload.maxInterarrival = sec(60);
    cfg.workload.horizon = sec(120);
    ParallelFleet fleet(cfg);
    return fleet.run();
}

TEST(ParallelFleet, RunsTheAzureMix)
{
    ParallelFleetResult r = runFleetScenario(2, 1);
    EXPECT_GT(r.invocations, 0);
    EXPECT_GT(r.coldStarts, 0);
    EXPECT_EQ(r.invocations, r.coldStarts + r.warmHits);
    EXPECT_EQ(r.e2eLatencyMs.count(), r.invocations);
    EXPECT_GT(r.eventsProcessed, 0);
    EXPECT_GT(r.windows, 0);
    EXPECT_GT(r.messages, 0);
    // Every invocation pays two fabric hops plus real worker time.
    EXPECT_GE(r.e2eLatencyMs.percentile(0), 1.0);
}

TEST(ParallelFleet, BitIdenticalAcrossThreadCounts)
{
    ParallelFleetResult ref = runFleetScenario(3, 1);
    std::uint64_t ref_digest = ref.digest();
    ASSERT_GT(ref.invocations, 0);
    for (int threads : {2, 4, 8}) {
        ParallelFleetResult r = runFleetScenario(3, threads);
        EXPECT_EQ(r.digest(), ref_digest) << "threads=" << threads;
        EXPECT_EQ(r.invocations, ref.invocations);
        EXPECT_EQ(r.coldStarts, ref.coldStarts);
        EXPECT_EQ(r.warmHits, ref.warmHits);
        EXPECT_EQ(r.scaleDowns, ref.scaleDowns);
        EXPECT_EQ(r.eventsProcessed, ref.eventsProcessed);
        EXPECT_EQ(r.windows, ref.windows);
        EXPECT_EQ(r.messages, ref.messages);
        EXPECT_EQ(r.e2eLatencyMs.values(), ref.e2eLatencyMs.values());
        EXPECT_EQ(r.coldE2eMs.values(), ref.coldE2eMs.values());
    }
}

ParallelFleetConfig
sharedScenarioConfig(core::ColdStartMode mode, int threads, int shards,
                     bool traffic)
{
    ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.simThreads = threads;
    cfg.coldStartMode = mode;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = shards;
    cfg.chunkPlacement = net::ChunkPlacementPolicy::OverlapAware;
    cfg.routingPolicy = RoutingPolicyKind::LocalityHash;
    cfg.keepAlive = sec(30);
    if (traffic) {
        TrafficConfig tc;
        tc.functions = 8;
        tc.tenants = 3;
        tc.aggregateRps = 2.0;
        tc.horizon = sec(120);
        tc.diurnal.amplitude = 0.5;
        tc.diurnal.period = sec(120);
        BurstSpec crowd;
        crowd.kind = BurstKind::FlashCrowd;
        crowd.tenant = 1;
        crowd.start = sec(40);
        crowd.duration = sec(20);
        crowd.multiplier = 8.0;
        tc.bursts.push_back(crowd);
        cfg.traffic = tc;
    } else {
        cfg.workload.functions = 6;
        cfg.workload.minInterarrival = sec(2);
        cfg.workload.maxInterarrival = sec(20);
        cfg.workload.horizon = sec(120);
    }
    return cfg;
}

ParallelFleetResult
runSharedScenario(core::ColdStartMode mode, int threads, int shards,
                  bool traffic)
{
    ParallelFleet fleet(
        sharedScenarioConfig(mode, threads, shards, traffic));
    return fleet.run();
}

TEST(ParallelFleet, SharedTieredBitIdenticalAcrossThreadCounts)
{
    // The tentpole contract: the fleet-shared data plane (store
    // domain, staging, adoption, port-backed fetches) keeps digests
    // bit-identical across sim thread counts.
    ParallelFleetResult ref = runSharedScenario(
        core::ColdStartMode::TieredReap, 1, 4, false);
    ASSERT_GT(ref.invocations, 0);
    EXPECT_GT(ref.snapshotBuilds, 0);
    EXPECT_GT(ref.stagedBytes, 0);
    EXPECT_EQ(static_cast<int>(ref.storeShards.size()), 4);
    std::uint64_t ref_digest = ref.digest();
    for (int threads : {2, 4, 8}) {
        ParallelFleetResult r = runSharedScenario(
            core::ColdStartMode::TieredReap, threads, 4, false);
        EXPECT_EQ(r.digest(), ref_digest) << "threads=" << threads;
    }
}

TEST(ParallelFleet, SharedDedupBitIdenticalAcrossThreadCounts)
{
    // DedupReap exercises the chunked staging path: fleet-wide chunk
    // index, per-chunk placement broadcast, sharded batched GETs.
    ParallelFleetResult ref = runSharedScenario(
        core::ColdStartMode::DedupReap, 1, 4, false);
    ASSERT_GT(ref.invocations, 0);
    EXPECT_GT(ref.chunksUploaded, 0);
    EXPECT_GT(ref.chunksDeduped, 0);
    EXPECT_GT(ref.dedupSavedBytes, 0);
    // The registry fold reports the staged index too: each distinct
    // chunk uploaded once, and dedup kept the index below the raw
    // artifact bytes the manifests describe.
    EXPECT_EQ(ref.chunksStored, ref.chunksUploaded);
    EXPECT_GT(ref.chunkLogicalBytes, ref.stagedBytes);
    std::uint64_t ref_digest = ref.digest();
    for (int threads : {2, 4, 8}) {
        ParallelFleetResult r = runSharedScenario(
            core::ColdStartMode::DedupReap, threads, 4, false);
        EXPECT_EQ(r.digest(), ref_digest) << "threads=" << threads;
    }
}

TEST(ParallelFleet, StagedRecordIsOneObjectFleetWide)
{
    // A working-set record is immutable once published: staging hands
    // the home worker's record to every worker, so each (worker,
    // function) pair reads the same object, at every thread count,
    // and the digest does not depend on where the bytes live.
    for (auto mode : {core::ColdStartMode::TieredReap,
                      core::ColdStartMode::DedupReap}) {
        std::uint64_t ref_digest = 0;
        for (int threads : {1, 2, 4}) {
            ParallelFleetConfig cfg =
                sharedScenarioConfig(mode, threads, 4, false);
            ParallelFleet fleet(cfg);
            FleetStats r = fleet.run();
            ASSERT_GT(r.invocations, 0);
            if (threads == 1)
                ref_digest = r.digest();
            EXPECT_EQ(r.digest(), ref_digest)
                << core::coldStartModeName(mode) << " threads=" << threads;
            for (const AzureMixEntry &e : synthesizeAzureMix(cfg.workload)) {
                const std::string &fn = e.profile.name;
                const core::WorkingSetRecord *first =
                    &fleet.orchestrator(0).record(fn);
                EXPECT_GT(first->pageCount(), 0) << fn;
                for (int w = 1; w < cfg.workers; ++w)
                    EXPECT_EQ(&fleet.orchestrator(w).record(fn), first)
                        << core::coldStartModeName(mode) << " " << fn
                        << " worker " << w << " threads=" << threads;
            }
        }
    }
}

TEST(ParallelFleet, WorkersRouteAdoptedChunksLikeTheStore)
{
    // Each Adopt ships only the store's placement log since the
    // previous one, yet every worker must group every chunk of every
    // manifest it adopted under the shard the store routes it to.
    for (auto placement : {net::ChunkPlacementPolicy::Hash,
                           net::ChunkPlacementPolicy::OverlapAware}) {
        for (int threads : {1, 2, 4}) {
            ParallelFleetConfig cfg = sharedScenarioConfig(
                core::ColdStartMode::DedupReap, threads, 4, false);
            cfg.chunkPlacement = placement;
            ParallelFleet fleet(cfg);
            ASSERT_GT(fleet.run().invocations, 0);
            ParallelFleet::PlacementAudit audit =
                fleet.auditPlacements();
            EXPECT_GT(audit.checked, 0);
            EXPECT_EQ(audit.disagreeing, 0)
                << net::placementPolicyName(placement)
                << " threads=" << threads;
        }
    }
}

TEST(PlacementTable, MatchesUnorderedMapUnderInsertIfAbsent)
{
    // Random insert-if-absent sequences, several growths deep: the
    // first value recorded for a key wins, keys never inserted read
    // absent, and the size is exact after every insert.
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        Rng rng(seed);
        net::PlacementTable table;
        std::unordered_map<std::uint64_t, int> ref;
        // A small key universe forces repeats; strided keys (equal
        // low bits) and key 0 probe the hash and the empty marker.
        auto draw = [&rng] {
            switch (rng.uniformInt(0, 2)) {
              case 0:
                return static_cast<std::uint64_t>(
                    rng.uniformInt(0, 3000));
              case 1:
                return static_cast<std::uint64_t>(
                           rng.uniformInt(0, 3000))
                       << 32;
              default:
                return rng.next();
            }
        };
        for (int i = 0; i < 6000; ++i) {
            std::uint64_t key = draw();
            int shard = static_cast<int>(rng.uniformInt(0, 15));
            bool fresh = ref.emplace(key, shard).second;
            ASSERT_EQ(table.insert(key, shard), fresh) << "op " << i;
            ASSERT_EQ(table.size(), ref.size()) << "op " << i;
        }
        EXPECT_GT(ref.size(), 2000u);
        for (const auto &[key, shard] : ref)
            EXPECT_EQ(table.find(key), shard);
        for (int i = 0; i < 2000; ++i) {
            std::uint64_t key = draw();
            EXPECT_EQ(table.find(key),
                      ref.count(key) ? ref.at(key) : -1);
        }
    }
    // An empty table reads every key absent.
    EXPECT_EQ(net::PlacementTable().find(0), -1);
}

TEST(ParallelFleet, TrafficDrivenSharedBitIdentical)
{
    // Open-loop TrafficEngine arrivals (diurnal + flash crowd) on the
    // shared data plane stay deterministic across thread counts.
    ParallelFleetResult ref = runSharedScenario(
        core::ColdStartMode::TieredReap, 1, 2, true);
    ASSERT_GT(ref.invocations, 0);
    std::uint64_t ref_digest = ref.digest();
    for (int threads : {2, 4}) {
        ParallelFleetResult r = runSharedScenario(
            core::ColdStartMode::TieredReap, threads, 2, true);
        EXPECT_EQ(r.digest(), ref_digest) << "threads=" << threads;
    }
}

TEST(ParallelFleet, PoliciesRouteAcrossWorkers)
{
    // Sanity: with several workers and warm-first routing, cold
    // starts land on more than one worker (round-robin spreads).
    ParallelFleetConfig cfg;
    cfg.workers = 4;
    cfg.simThreads = 2;
    cfg.routingPolicy = RoutingPolicyKind::WarmFirst;
    cfg.workload.functions = 8;
    cfg.workload.minInterarrival = sec(2);
    cfg.workload.maxInterarrival = sec(30);
    cfg.workload.horizon = sec(60);
    ParallelFleet fleet(cfg);
    ParallelFleetResult r = fleet.run();
    EXPECT_GT(r.invocations, 0);
    EXPECT_GT(r.coldStarts, 1);
}

} // namespace
} // namespace vhive::cluster

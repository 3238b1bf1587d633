/**
 * @file
 * DES-kernel hot-path microbenchmark: wall-clock events/sec for the
 * event patterns that dominate every figure reproduction. Six
 * scenarios, each isolating one kernel path:
 *
 *  - delay-storm:       many tasks sleeping scattered future durations
 *                       (future-event queue push/pop).
 *  - channel-pingpong:  two tasks bouncing a token through Channels
 *                       (same-timestamp wakeups: the now-queue path).
 *  - spawn-join-churn:  waves of short-lived detached tasks (coroutine
 *                       frame allocation/release + detach registry).
 *  - semaphore-convoy:  64 tasks convoying over a 1-permit semaphore
 *                       (FIFO waiter queue + handoff wakeups).
 *  - window-handoff:    four ParallelKernel domains passing tokens
 *                       around a CrossPort ring on 2 sim threads,
 *                       ~130 events per window (the pool's per-window
 *                       hand-off and join).
 *  - access-run:        one MicroVm serving a trace whose pages are all
 *                       present, so each access run costs one touch and
 *                       one exec (the vCPU loop of a warm instance).
 *
 * Every scenario reports simulated events processed, wall seconds
 * (best of repeats) and events/sec; `VHIVE_BENCH_JSON=<path>` exports
 * the rows for cross-PR tracking (CI checks them against a floor).
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "host/cpu_pool.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/disk.hh"
#include "storage/file_store.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "vmm/microvm.hh"

using namespace vhive;

namespace {

struct ScenarioResult {
    std::int64_t events = 0;
    double wallSec = 0; // best of repeats
};

/** Deterministic splitmix-style hash for scattered delay durations. */
constexpr Duration
scatteredDelay(std::uint64_t task, std::uint64_t round)
{
    std::uint64_t x = task * 0x9e3779b97f4a7c15ull + round;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return static_cast<Duration>(x % 977 + 1);
}

// --------------------------------------------------------------- storm

sim::Task<void>
stormTask(sim::Simulation &sim, int id, int rounds)
{
    for (int r = 0; r < rounds; ++r)
        co_await sim.delay(scatteredDelay(static_cast<std::uint64_t>(id),
                                          static_cast<std::uint64_t>(r)));
}

std::int64_t
runDelayStorm()
{
    sim::Simulation sim;
    const int tasks = 256, rounds = 2000;
    for (int i = 0; i < tasks; ++i)
        sim.spawn(stormTask(sim, i, rounds));
    sim.run();
    return sim.eventsProcessed();
}

// ------------------------------------------------------------ pingpong

sim::Task<void>
pingponger(sim::Channel<int> &in, sim::Channel<int> &out, int bounces)
{
    for (int i = 0; i < bounces; ++i) {
        int v = co_await in.recv();
        out.send(v + 1);
    }
}

std::int64_t
runChannelPingpong()
{
    sim::Simulation sim;
    const int bounces = 400000;
    sim::Channel<int> a(sim), b(sim);
    sim.spawn(pingponger(a, b, bounces));
    sim.spawn(pingponger(b, a, bounces));
    a.send(0);
    sim.run();
    return sim.eventsProcessed();
}

// --------------------------------------------------------------- churn

sim::Task<void>
shortLived(sim::Simulation &sim)
{
    co_await sim.delay(1);
}

sim::Task<void>
churnDriver(sim::Simulation &sim, int waves, int perWave)
{
    for (int w = 0; w < waves; ++w) {
        for (int i = 0; i < perWave; ++i)
            sim.spawn(shortLived(sim));
        co_await sim.delay(2);
    }
}

std::int64_t
runSpawnJoinChurn()
{
    sim::Simulation sim;
    sim.spawn(churnDriver(sim, 8000, 32));
    sim.run();
    return sim.eventsProcessed();
}

// -------------------------------------------------------------- convoy

sim::Task<void>
convoyTask(sim::Simulation &sim, sim::Semaphore &sem, int rounds)
{
    for (int r = 0; r < rounds; ++r) {
        co_await sem.acquire();
        sim::SemaphoreGuard g(sem);
        co_await sim.delay(1);
    }
}

std::int64_t
runSemaphoreConvoy()
{
    sim::Simulation sim;
    const int tasks = 64, rounds = 4000;
    sim::Semaphore sem(sim, 1);
    for (int i = 0; i < tasks; ++i)
        sim.spawn(convoyTask(sim, sem, rounds));
    sim.run();
    return sim.eventsProcessed();
}

// ------------------------------------------------------ window handoff

sim::Task<void>
handoffNode(sim::Simulation &sim, sim::CrossPort<int> &in,
            sim::CrossPort<int> &out, int hops)
{
    for (int h = 0; h < hops; ++h) {
        int v = co_await in.recv();
        for (int j = 0; j < 32; ++j)
            co_await sim.delay(usec(0.25));
        out.send(v + 1);
    }
}

std::int64_t
runWindowHandoff()
{
    // Every node holds one token at a time and all start in phase, so
    // each 10 us window runs every domain (no solo stretches) for 33
    // events: ~130 per window, as in the fleet-tiered-t2 e2e workload.
    const int domains = 4, hops = 10000;
    sim::ParallelKernel k(domains, 2);
    std::vector<std::unique_ptr<sim::CrossPort<int>>> ports;
    for (int d = 0; d < domains; ++d)
        ports.push_back(std::make_unique<sim::CrossPort<int>>(
            k, k.domain(d), k.domain((d + 1) % domains), usec(10)));
    for (int d = 0; d < domains; ++d)
        k.sim(d).spawn(handoffNode(
            k.sim(d),
            *ports[static_cast<std::size_t>((d + domains - 1) % domains)],
            *ports[static_cast<std::size_t>(d)], hops));
    for (auto &port : ports)
        port->send(0);
    k.run();
    VHIVE_ASSERT(k.stats().soloWindows == 0);
    return k.totalEventsProcessed();
}

// ---------------------------------------------------------- access run

sim::Task<void>
serveWarm(vmm::MicroVm &vm, const func::InvocationTrace &trace,
          int invocations)
{
    co_await vm.bootFromScratch(func::InvocationTrace{});
    // Every page the trace touches is resident before the first serve.
    vm.guestMemory().installRange(0, trace.totalPages());
    for (int i = 0; i < invocations; ++i)
        (void)co_await vm.serveInvocation(trace, nullptr);
}

std::int64_t
runAccessRun()
{
    // 512 four-page runs with 1 us of compute each, served 1000 times:
    // ~1M events, two per run.
    const int runs = 512, pages_per_run = 4, invocations = 1000;
    sim::Simulation sim;
    storage::DiskDevice ssd(sim, storage::DiskParams::ssd());
    storage::FileStore fs(sim, ssd);
    host::CpuPool cpus(sim, 4);
    vmm::MicroVm vm(sim, fs, cpus, func::profileByName("helloworld"));
    func::InvocationTrace trace;
    for (int r = 0; r < runs; ++r) {
        func::AccessRun run;
        run.page = r * pages_per_run;
        run.pages = pages_per_run;
        run.computeAfter = usec(1);
        trace.runs.push_back(run);
    }
    trace.stablePageCount = runs * pages_per_run;
    sim.spawn(serveWarm(vm, trace, invocations));
    sim.run();
    VHIVE_ASSERT(vm.guestMemory().stats().majorFaults == 0);
    return sim.eventsProcessed();
}

// ------------------------------------------------------------- harness

template <typename Fn>
ScenarioResult
measure(Fn scenario)
{
    const int repeats = 3;
    ScenarioResult best;
    for (int i = 0; i < repeats; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        std::int64_t events = scenario();
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (best.events == 0 || wall < best.wallSec) {
            best.events = events;
            best.wallSec = wall;
        }
    }
    return best;
}

} // namespace

int
main()
{
    bench::banner("DES kernel hot path: events/sec by scenario "
                  "(best of 3)");

    bench::JsonWriter json("kernel_hotpath");
    Table t({"scenario", "events", "wall_ms", "Mevents/s"});

    struct Row {
        const char *name;
        std::int64_t (*fn)();
    };
    const Row rows[] = {
        {"delay-storm", runDelayStorm},
        {"channel-pingpong", runChannelPingpong},
        {"spawn-join-churn", runSpawnJoinChurn},
        {"semaphore-convoy", runSemaphoreConvoy},
        {"window-handoff", runWindowHandoff},
        {"access-run", runAccessRun},
    };

    for (const Row &r : rows) {
        ScenarioResult res = measure(r.fn);
        double eps = static_cast<double>(res.events) / res.wallSec;
        t.row()
            .cell(r.name)
            .cell(res.events)
            .cell(res.wallSec * 1e3, 1)
            .cell(eps / 1e6, 2);
        json.row(r.name, "events_per_sec", eps, eps);
    }
    t.print();

    std::printf("\nThe six scenarios isolate the kernel paths every "
                "figure reproduction leans on:\nfuture-event queue ops, "
                "same-timestamp wakeups, coroutine frame churn,\n"
                "FIFO semaphore handoff, the parallel kernel's window "
                "hand-off, and a warm\nvCPU's touch-and-compute loop.\n");
    return 0;
}

/**
 * @file
 * Unit tests for the DES kernel: clock/event ordering, coroutine task
 * composition, fork/join, and the synchronization primitives.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::sim {
namespace {

Task<void>
sleeper(Simulation &sim, Duration d, std::vector<int> &log, int id)
{
    co_await sim.delay(d);
    log.push_back(id);
}

TEST(Simulation, DelayAdvancesClock)
{
    Simulation sim;
    std::vector<int> log;
    sim.spawn(sleeper(sim, msec(5), log, 1));
    Time end = sim.run();
    EXPECT_EQ(end, msec(5));
    EXPECT_EQ(log, std::vector<int>({1}));
}

TEST(Simulation, EventsFireInTimeOrder)
{
    Simulation sim;
    std::vector<int> log;
    sim.spawn(sleeper(sim, msec(30), log, 3));
    sim.spawn(sleeper(sim, msec(10), log, 1));
    sim.spawn(sleeper(sim, msec(20), log, 2));
    sim.run();
    EXPECT_EQ(log, std::vector<int>({1, 2, 3}));
}

TEST(Simulation, SameTimestampIsFifo)
{
    Simulation sim;
    std::vector<int> log;
    for (int i = 0; i < 8; ++i)
        sim.spawn(sleeper(sim, msec(7), log, i));
    sim.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(log[i], i);
}

TEST(Simulation, StaysSmall)
{
    // The parallel kernel builds one Simulation per domain (one per
    // worker plus the store shards), so fixed per-Simulation arrays
    // multiply with fleet size: a 4096-slot timing wheel once made
    // each one ~98 KiB before it scheduled anything. Queue storage
    // beyond the inline now-ring must grow with pending events only.
    static_assert(sizeof(Simulation) <= 4096);
}

TEST(Simulation, ZeroDelayCompletesInline)
{
    Simulation sim;
    std::vector<int> log;
    sim.spawn(sleeper(sim, 0, log, 1));
    EXPECT_EQ(sim.run(), 0);
    EXPECT_EQ(log.size(), 1u);
}

TEST(Simulation, RunUntilLeavesFutureEventsQueued)
{
    Simulation sim;
    std::vector<int> log;
    sim.spawn(sleeper(sim, msec(10), log, 1));
    sim.spawn(sleeper(sim, msec(50), log, 2));
    sim.runUntil(msec(20));
    EXPECT_EQ(sim.now(), msec(20));
    EXPECT_EQ(log, std::vector<int>({1}));
    sim.run();
    EXPECT_EQ(log, std::vector<int>({1, 2}));
    EXPECT_EQ(sim.now(), msec(50));
}

Task<int>
answer(Simulation &sim)
{
    co_await sim.delay(usec(1));
    co_return 42;
}

Task<void>
awaitsChild(Simulation &sim, int &out)
{
    out = co_await answer(sim);
}

TEST(Task, ChildResultPropagates)
{
    Simulation sim;
    int out = 0;
    sim.spawn(awaitsChild(sim, out));
    sim.run();
    EXPECT_EQ(out, 42);
}

Task<int>
instant(int v)
{
    co_return v;
}

Task<void>
awaitsInstant(int &out)
{
    out = co_await instant(7);
}

TEST(Task, ImmediateChildCompletesAtSameTime)
{
    Simulation sim;
    int out = 0;
    sim.spawn(awaitsInstant(out));
    Time end = sim.run();
    EXPECT_EQ(out, 7);
    EXPECT_EQ(end, 0);
}

Task<void>
forkJoin(Simulation &sim, std::vector<int> &log, Time &joined_at)
{
    // Start three children in parallel, then join them all.
    std::vector<Task<void>> kids;
    kids.push_back(sleeper(sim, msec(3), log, 3));
    kids.push_back(sleeper(sim, msec(1), log, 1));
    kids.push_back(sleeper(sim, msec(2), log, 2));
    for (auto &k : kids)
        k.start(sim);
    for (auto &k : kids)
        co_await k;
    joined_at = sim.now();
}

TEST(Task, ForkJoinRunsChildrenConcurrently)
{
    Simulation sim;
    std::vector<int> log;
    Time joined_at = -1;
    sim.spawn(forkJoin(sim, log, joined_at));
    sim.run();
    // Children overlap: total time is max, not sum.
    EXPECT_EQ(joined_at, msec(3));
    EXPECT_EQ(log, std::vector<int>({1, 2, 3}));
}

TEST(Task, SequentialAwaitAccumulatesTime)
{
    struct Runner {
        static Task<void>
        run(Simulation &sim, std::vector<Time> &marks, std::vector<int> &l)
        {
            co_await sim.delay(msec(1));
            marks.push_back(sim.now());
            co_await sleeper(sim, msec(2), l, 9);
            marks.push_back(sim.now());
        }
    };
    Simulation sim;
    std::vector<Time> marks;
    std::vector<int> log;
    sim.spawn(Runner::run(sim, marks, log));
    sim.run();
    ASSERT_EQ(marks.size(), 2u);
    EXPECT_EQ(marks[0], msec(1));
    EXPECT_EQ(marks[1], msec(3));
}

TEST(Simulation, TeardownReclaimsBlockedTasks)
{
    // Tasks blocked on a never-opened gate must be reclaimed by the
    // simulation destructor without leaks or crashes: one task, then
    // ten, each frame destroyed exactly once.
    struct Blocked {
        static Task<void>
        run(Gate &gate, int &cleaned)
        {
            struct OnExit {
                int &count;
                ~OnExit() { ++count; }
            } on_exit{cleaned};
            co_await gate.wait();
        }
    };
    for (int tasks : {1, 10}) {
        int cleaned = 0;
        {
            Simulation sim;
            Gate gate(sim);
            for (int i = 0; i < tasks; ++i)
                sim.spawn(Blocked::run(gate, cleaned));
            sim.run();
            EXPECT_EQ(cleaned, 0);
        }
        EXPECT_EQ(cleaned, tasks);
    }
}

TEST(Gate, ReleasesAllWaiters)
{
    struct Waiter {
        static Task<void>
        run(Gate &g, int &done)
        {
            co_await g.wait();
            ++done;
        }
    };
    struct Opener {
        static Task<void>
        run(Simulation &sim, Gate &g)
        {
            co_await sim.delay(msec(4));
            g.openGate();
        }
    };
    Simulation sim;
    Gate gate(sim);
    int done = 0;
    for (int i = 0; i < 5; ++i)
        sim.spawn(Waiter::run(gate, done));
    sim.spawn(Opener::run(sim, gate));
    sim.run();
    EXPECT_EQ(done, 5);
    EXPECT_TRUE(gate.isOpen());
}

TEST(Gate, OpenGateIsPassThrough)
{
    struct Waiter {
        static Task<void>
        run(Simulation &sim, Gate &g, Time &woke)
        {
            co_await sim.delay(msec(2));
            co_await g.wait();
            woke = sim.now();
        }
    };
    Simulation sim;
    Gate gate(sim);
    gate.openGate();
    Time woke = -1;
    sim.spawn(Waiter::run(sim, gate, woke));
    sim.run();
    EXPECT_EQ(woke, msec(2));
}

TEST(Latch, CountsDown)
{
    struct Worker {
        static Task<void>
        run(Simulation &sim, Latch &latch, Duration d)
        {
            co_await sim.delay(d);
            latch.arrive();
        }
    };
    struct Joiner {
        static Task<void>
        run(Simulation &sim, Latch &latch, Time &when)
        {
            co_await latch.wait();
            when = sim.now();
        }
    };
    Simulation sim;
    Latch latch(sim, 3);
    Time when = -1;
    sim.spawn(Worker::run(sim, latch, msec(1)));
    sim.spawn(Worker::run(sim, latch, msec(5)));
    sim.spawn(Worker::run(sim, latch, msec(3)));
    sim.spawn(Joiner::run(sim, latch, when));
    sim.run();
    EXPECT_EQ(when, msec(5));
}

TEST(Latch, ZeroCountOpensImmediately)
{
    struct Joiner {
        static Task<void>
        run(Simulation &sim, Latch &latch, Time &when)
        {
            co_await latch.wait();
            when = sim.now();
        }
    };
    Simulation sim;
    Latch latch(sim, 0);
    Time when = -1;
    sim.spawn(Joiner::run(sim, latch, when));
    sim.run();
    EXPECT_EQ(when, 0);
}

/**
 * Same-instant order of a latch join: who resumes first when the last
 * child ends at the same time as its siblings. Children A and B end at
 * t=10; B first opens a gate. The joiner's wake-up is scheduled, so it
 * runs behind S2 (queued earlier for t=10) and behind the gate waiter
 * B woke before it ended. A child joined through Latch::spawn arrives
 * at its final suspend, which must give the order of a child whose
 * last statement is arrive().
 */
const std::vector<std::string> kLatchJoinOrder = {"A", "S1", "B", "S2",
                                                  "G", "W"};

struct LatchJoinScenario
{
    static Task<void>
    joiner(Latch &latch, std::vector<std::string> &log)
    {
        co_await latch.wait();
        log.push_back("W");
    }

    static Task<void>
    gateWaiter(Gate &gate, std::vector<std::string> &log)
    {
        co_await gate.wait();
        log.push_back("G");
    }

    static Task<void>
    sibling(Simulation &sim, std::string name,
            std::vector<std::string> &log)
    {
        co_await sim.delay(10);
        log.push_back(std::move(name));
    }

    /** Ends at t=10, arriving at @p latch last when it is non-null. */
    static Task<void>
    child(Simulation &sim, std::string name, Gate *gate, Latch *latch,
          std::vector<std::string> &log)
    {
        co_await sim.delay(10);
        log.push_back(std::move(name));
        if (gate != nullptr)
            gate->openGate();
        if (latch != nullptr)
            latch->arrive();
    }

    /** Spawn order: W, G, A, S1, B, S2; children joined either way. */
    static std::vector<std::string>
    run(bool via_spawn)
    {
        Simulation sim;
        std::vector<std::string> log;
        Gate gate(sim);
        Latch latch(sim, via_spawn ? 0 : 2);
        auto start_child = [&](const char *name, Gate *g) {
            if (via_spawn)
                latch.spawn(child(sim, name, g, nullptr, log));
            else
                sim.spawn(child(sim, name, g, &latch, log));
        };
        sim.spawn(joiner(latch, log));
        sim.spawn(gateWaiter(gate, log));
        start_child("A", nullptr);
        sim.spawn(sibling(sim, "S1", log));
        start_child("B", &gate);
        sim.spawn(sibling(sim, "S2", log));
        sim.run();
        return log;
    }
};

TEST(Latch, PinnedSameInstantOrderWithManualArrive)
{
    EXPECT_EQ(LatchJoinScenario::run(false), kLatchJoinOrder);
}

TEST(Latch, PinnedSameInstantOrderThroughSpawn)
{
    EXPECT_EQ(LatchJoinScenario::run(true), kLatchJoinOrder);
}

TEST(Latch, RearmsWhenChildrenSpawnAfterZero)
{
    struct T {
        static Task<void>
        child(Simulation &sim, Duration d)
        {
            co_await sim.delay(d);
        }

        static Task<void>
        driver(Simulation &sim, Latch &latch, std::vector<Time> &joins)
        {
            latch.spawn(child(sim, 5));
            co_await latch.wait();
            joins.push_back(sim.now());
            // The count is zero: wait() does not suspend.
            co_await latch.wait();
            joins.push_back(sim.now());
            co_await sim.delay(5);
            latch.spawn(child(sim, 3));
            latch.spawn(child(sim, 7));
            co_await latch.wait();
            joins.push_back(sim.now());
        }
    };
    Simulation sim;
    Latch latch(sim, 0);
    std::vector<Time> joins;
    sim.spawn(T::driver(sim, latch, joins));
    sim.run();
    EXPECT_EQ(joins, std::vector<Time>({5, 5, 17}));
}

TEST(Latch, TeardownReclaimsLiveChildren)
{
    // A parent blocked on its latch at teardown: the simulation
    // destroys both frames, and the latch dies with a live child
    // without panicking.
    struct T {
        static Task<void>
        child(Simulation &sim)
        {
            co_await sim.delay(msec(10));
        }

        static Task<void>
        parent(Simulation &sim)
        {
            Latch latch(sim, 0);
            latch.spawn(child(sim));
            co_await latch.wait();
        }
    };
    auto sim = std::make_unique<Simulation>();
    sim->spawn(T::parent(*sim));
    sim->runUntil(msec(5));
    sim.reset();
    SUCCEED();
}

TEST(LatchDeathTest, DestroyedWithLiveSpawnedChildPanics)
{
    struct T {
        static Task<void>
        child(Simulation &sim)
        {
            co_await sim.delay(msec(10));
        }
    };
    EXPECT_DEATH(
        {
            Simulation sim;
            {
                Latch latch(sim, 0);
                latch.spawn(T::child(sim));
                sim.runUntil(msec(5));
            }
        },
        "Latch destroyed with 1 spawned task");
}

Task<void>
useResource(Simulation &sim, Semaphore &sem, Duration hold,
            std::vector<Time> &starts)
{
    co_await sem.acquire();
    SemaphoreGuard guard(sem);
    starts.push_back(sim.now());
    co_await sim.delay(hold);
}

TEST(Semaphore, SerializesWhenSinglePermit)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    std::vector<Time> starts;
    for (int i = 0; i < 3; ++i)
        sim.spawn(useResource(sim, sem, msec(10), starts));
    sim.run();
    ASSERT_EQ(starts.size(), 3u);
    EXPECT_EQ(starts[0], 0);
    EXPECT_EQ(starts[1], msec(10));
    EXPECT_EQ(starts[2], msec(20));
}

TEST(Semaphore, ParallelismMatchesPermits)
{
    Simulation sim;
    Semaphore sem(sim, 4);
    std::vector<Time> starts;
    for (int i = 0; i < 8; ++i)
        sim.spawn(useResource(sim, sem, msec(10), starts));
    Time end = sim.run();
    // Two waves of four.
    EXPECT_EQ(end, msec(20));
    EXPECT_EQ(std::count(starts.begin(), starts.end(), 0), 4);
    EXPECT_EQ(std::count(starts.begin(), starts.end(), msec(10)), 4);
}

TEST(Semaphore, QueueLengthVisible)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    std::vector<Time> starts;
    for (int i = 0; i < 3; ++i)
        sim.spawn(useResource(sim, sem, msec(1), starts));
    sim.runUntil(usec(1));
    EXPECT_EQ(sem.queueLength(), 2);
    sim.run();
    EXPECT_EQ(sem.queueLength(), 0);
    EXPECT_EQ(sem.availablePermits(), 1);
}

TEST(Semaphore, GuardMoveAssignReleasesHeldPermit)
{
    struct T {
        static Task<void>
        run(Semaphore &a, Semaphore &b)
        {
            co_await a.acquire();
            SemaphoreGuard ga(a);
            co_await b.acquire();
            SemaphoreGuard gb(b);
            // Assigning over a live guard must release its permit
            // immediately, then adopt the other guard's.
            ga = std::move(gb);
            EXPECT_EQ(a.availablePermits(), 1);
            EXPECT_EQ(b.availablePermits(), 0);
        }
    };
    Simulation sim;
    Semaphore a(sim, 1), b(sim, 1);
    sim.spawn(T::run(a, b));
    sim.run();
    // ga released b's permit at scope exit; the moved-from gb did
    // not double-release anything.
    EXPECT_EQ(a.availablePermits(), 1);
    EXPECT_EQ(b.availablePermits(), 1);
}

TEST(Semaphore, GuardMoveAssignIntoEmptyGuard)
{
    struct T {
        static Task<void>
        run(Semaphore &sem)
        {
            co_await sem.acquire();
            SemaphoreGuard held(sem);
            SemaphoreGuard empty(std::move(held));
            // `held` is now empty; assigning into it must not release.
            held = std::move(empty);
            EXPECT_EQ(sem.availablePermits(), 0);
        }
    };
    Simulation sim;
    Semaphore sem(sim, 1);
    sim.spawn(T::run(sem));
    sim.run();
    EXPECT_EQ(sem.availablePermits(), 1);
}

TEST(Channel, DeliversFifo)
{
    struct Producer {
        static Task<void>
        run(Simulation &sim, Channel<int> &ch)
        {
            for (int i = 0; i < 5; ++i) {
                co_await sim.delay(msec(1));
                ch.send(i);
            }
        }
    };
    struct Consumer {
        static Task<void>
        run(Channel<int> &ch, std::vector<int> &got)
        {
            for (int i = 0; i < 5; ++i)
                got.push_back(co_await ch.recv());
        }
    };
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<int> got;
    sim.spawn(Producer::run(sim, ch));
    sim.spawn(Consumer::run(ch, got));
    sim.run();
    EXPECT_EQ(got, std::vector<int>({0, 1, 2, 3, 4}));
}

TEST(Channel, BuffersWhenNoReceiver)
{
    Simulation sim;
    Channel<int> ch(sim);
    ch.send(1);
    ch.send(2);
    EXPECT_EQ(ch.size(), 2);
    std::vector<int> got;
    struct Consumer {
        static Task<void>
        run(Channel<int> &ch, std::vector<int> &got)
        {
            got.push_back(co_await ch.recv());
            got.push_back(co_await ch.recv());
        }
    };
    sim.spawn(Consumer::run(ch, got));
    sim.run();
    EXPECT_EQ(got, std::vector<int>({1, 2}));
    EXPECT_TRUE(ch.empty());
}

TEST(Channel, HandoffIsNotStolenByLateReceiver)
{
    // Receiver A blocks first; a value is sent; receiver B arrives at
    // the same timestamp. A must get the value, B must stay blocked.
    struct Recv {
        static Task<void>
        run(Channel<int> &ch, std::vector<int> &order, int id)
        {
            int v = co_await ch.recv();
            order.push_back(id * 100 + v);
        }
    };
    struct Sender {
        static Task<void>
        run(Simulation &sim, Channel<int> &ch)
        {
            co_await sim.delay(msec(1));
            ch.send(7);
            co_return;
        }
    };
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<int> order;
    sim.spawn(Recv::run(ch, order, 1));
    sim.spawn(Sender::run(sim, ch));
    sim.spawn(Recv::run(ch, order, 2)); // blocks: only one value sent
    sim.run();
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 107);
}

TEST(Channel, ManyProducersManyConsumers)
{
    struct Producer {
        static Task<void>
        run(Simulation &sim, Channel<int> &ch, int base, Duration gap)
        {
            for (int i = 0; i < 10; ++i) {
                co_await sim.delay(gap);
                ch.send(base + i);
            }
        }
    };
    struct Consumer {
        static Task<void>
        run(Channel<int> &ch, std::vector<int> &got, int count)
        {
            for (int i = 0; i < count; ++i)
                got.push_back(co_await ch.recv());
        }
    };
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<int> got;
    sim.spawn(Producer::run(sim, ch, 0, usec(10)));
    sim.spawn(Producer::run(sim, ch, 100, usec(17)));
    sim.spawn(Consumer::run(ch, got, 10));
    sim.spawn(Consumer::run(ch, got, 10));
    sim.run();
    EXPECT_EQ(got.size(), 20u);
    std::sort(got.begin(), got.end());
    EXPECT_TRUE(std::unique(got.begin(), got.end()) == got.end());
}

TEST(Simulation, DeterministicEventCount)
{
    auto run_once = [](std::int64_t &events, Time &end) {
        Simulation sim;
        Channel<int> ch(sim);
        std::vector<int> got;
        struct P {
            static Task<void>
            run(Simulation &sim, Channel<int> &ch)
            {
                for (int i = 0; i < 50; ++i) {
                    co_await sim.delay(usec(3));
                    ch.send(i);
                }
            }
        };
        struct C {
            static Task<void>
            run(Channel<int> &ch, std::vector<int> &got)
            {
                for (int i = 0; i < 50; ++i)
                    got.push_back(co_await ch.recv());
            }
        };
        sim.spawn(P::run(sim, ch));
        sim.spawn(C::run(ch, got));
        end = sim.run();
        events = sim.eventsProcessed();
    };
    std::int64_t e1 = 0, e2 = 0;
    Time t1 = 0, t2 = 0;
    run_once(e1, t1);
    run_once(e2, t2);
    EXPECT_EQ(e1, e2);
    EXPECT_EQ(t1, t2);
}

} // namespace
} // namespace vhive::sim

/**
 * @file
 * Unit tests for the DES kernel: clock/event ordering, coroutine task
 * composition, fork/join, and the synchronization primitives.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/frame_pool.hh"
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
    // A task blocked on a never-opened gate must be reclaimed by the
    // simulation destructor without leaks or crashes.
    struct Blocked {
        static Task<void>
        run(Gate &gate, bool &cleaned)
        {
            struct OnExit {
                bool &flag;
                ~OnExit() { flag = true; }
            } on_exit{cleaned};
            co_await gate.wait();
        }
    };
    bool cleaned = false;
    {
        Simulation sim;
        Gate gate(sim);
        sim.spawn(Blocked::run(gate, cleaned));
        sim.run();
        EXPECT_FALSE(cleaned);
    }
    EXPECT_TRUE(cleaned);
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

namespace frame_pool_test {

Task<void>
shortLived(Simulation &sim)
{
    co_await sim.delay(1);
}

Task<void>
driver(Simulation &sim, int waves, int perWave)
{
    for (int w = 0; w < waves; ++w) {
        for (int i = 0; i < perWave; ++i)
            sim.spawn(shortLived(sim));
        co_await sim.delay(2);
    }
}

void
runChurn()
{
    Simulation sim;
    sim.spawn(driver(sim, 40, 8));
    sim.run();
}

} // namespace frame_pool_test

TEST(FramePool, SteadyStateChurnReusesFramesWithoutCarving)
{
    if (!FramePool::pooling())
        GTEST_SKIP() << "frame pool bypassed under sanitizers";
    // Warm the size classes, then verify an identical second run is
    // served entirely from recycled frames: no fresh slab memory, and
    // teardown returns every frame to the pool.
    frame_pool_test::runChurn();
    auto mid = FramePool::stats();
    auto liveMid = FramePool::liveFrames();

    frame_pool_test::runChurn();
    auto after = FramePool::stats();

    EXPECT_GT(after.poolAllocs, mid.poolAllocs);
    EXPECT_EQ(after.carvedBlocks, mid.carvedBlocks);
    EXPECT_EQ(after.slabBytes, mid.slabBytes);
    EXPECT_EQ(FramePool::liveFrames(), liveMid);
}

TEST(FramePool, TeardownReturnsBlockedTaskFrames)
{
    struct Blocked {
        static Task<void>
        run(Gate &gate)
        {
            co_await gate.wait();
        }
    };
    if (!FramePool::pooling())
        GTEST_SKIP() << "frame pool bypassed under sanitizers";
    auto live0 = FramePool::liveFrames();
    {
        Simulation sim;
        Gate gate(sim);
        for (int i = 0; i < 10; ++i)
            sim.spawn(Blocked::run(gate));
        sim.run();
        EXPECT_GE(FramePool::liveFrames(), live0 + 10);
    }
    // Simulation teardown destroyed the blocked frames; all of them
    // went back to the free lists.
    EXPECT_EQ(FramePool::liveFrames(), live0);
}

TEST(FramePool, ExitedThreadsFramesServeLaterThreads)
{
    if (!FramePool::pooling())
        GTEST_SKIP() << "frame pool bypassed under sanitizers";
    // Threads that run one after another, as each parallel fleet's
    // pool threads do: an exiting thread's cached frames go back to
    // the process-wide depot, so later threads carve no new slabs.
    auto churnOnThread = [] {
        std::thread t(frame_pool_test::runChurn);
        t.join();
    };
    churnOnThread();
    std::uint64_t afterOne = FramePool::processSlabBytes();
    for (int i = 0; i < 7; ++i)
        churnOnThread();
    EXPECT_EQ(FramePool::processSlabBytes(), afterOne);
}

TEST(FramePool, FramesFreedOnAnotherThreadAreReused)
{
    if (!FramePool::pooling())
        GTEST_SKIP() << "frame pool bypassed under sanitizers";
    // This thread allocates a round of frames and a second thread
    // frees them, as when a domain's frames are allocated on one pool
    // thread and freed on another. The freeing thread keeps at most
    // two batches and hands the rest to the depot, which refills the
    // allocating thread: slab memory stays bounded by one round plus
    // the caches, however many rounds run.
    constexpr std::size_t kFrame = 192;
    constexpr int kPerRound = 2000;
    struct Handoff {
        std::mutex mu;
        std::condition_variable cv;
        std::vector<void *> frames;
        bool full = false; ///< frames await the freeing thread
        bool done = false;
    } h;
    std::thread freer([&h] {
        for (;;) {
            std::vector<void *> frames;
            {
                std::unique_lock<std::mutex> lock(h.mu);
                h.cv.wait(lock, [&h] { return h.full || h.done; });
                if (!h.full)
                    return;
                frames.swap(h.frames);
            }
            for (void *p : frames)
                FramePool::deallocate(p, kFrame);
            {
                std::lock_guard<std::mutex> lock(h.mu);
                h.full = false;
            }
            h.cv.notify_all();
        }
    });
    auto runRounds = [&h](int rounds) {
        for (int r = 0; r < rounds; ++r) {
            std::vector<void *> frames;
            for (int i = 0; i < kPerRound; ++i)
                frames.push_back(FramePool::allocate(kFrame));
            std::unique_lock<std::mutex> lock(h.mu);
            h.frames = std::move(frames);
            h.full = true;
            h.cv.notify_all();
            h.cv.wait(lock, [&h] { return !h.full; });
        }
    };

    std::uint64_t start = FramePool::processSlabBytes();
    runRounds(8);
    std::uint64_t warm = FramePool::processSlabBytes();
    runRounds(200);
    std::uint64_t later = FramePool::processSlabBytes();
    {
        std::lock_guard<std::mutex> lock(h.mu);
        h.done = true;
    }
    h.cv.notify_all();
    freer.join();

    // One round, the freeing thread's two cached batches, and one
    // slab of rounding, with a slab to spare.
    constexpr std::uint64_t kPerSlab = FramePool::kSlabBytes / kFrame;
    constexpr std::uint64_t kBound =
        (kPerRound / kPerSlab + 5) * kPerSlab * kFrame;
    EXPECT_LE(warm - start, kBound);
    EXPECT_LE(later - start, kBound);
}

namespace frame_pool_test {

constexpr std::size_t kLargeFrame = 4000;

/** Frees its frame, and churns one more, after the frame cache is gone. */
struct LateHolder {
    void *frame = nullptr;

    ~LateHolder()
    {
        FramePool::deallocate(FramePool::allocate(kLargeFrame), kLargeFrame);
        FramePool::deallocate(frame, kLargeFrame);
    }
};

} // namespace frame_pool_test

TEST(FramePool, FramesFreedDuringThreadTeardownGoToTheDepot)
{
    if (!FramePool::pooling())
        GTEST_SKIP() << "frame pool bypassed under sanitizers";
    using frame_pool_test::kLargeFrame;
    // A thread-local built before the thread's first frame is destroyed
    // after the thread's frame cache: what it allocates and frees then
    // goes through the depot, so a later thread finds those frames.
    std::thread([] {
        static thread_local frame_pool_test::LateHolder held;
        held.frame = FramePool::allocate(kLargeFrame);
    }).join();

    std::uint64_t before = FramePool::processSlabBytes();
    std::thread([] {
        constexpr std::size_t kBlock =
            (kLargeFrame + FramePool::kGranule - 1) / FramePool::kGranule *
            FramePool::kGranule;
        std::vector<void *> frames;
        for (std::size_t i = 0; i < FramePool::kSlabBytes / kBlock; ++i)
            frames.push_back(FramePool::allocate(kLargeFrame));
        for (void *p : frames)
            FramePool::deallocate(p, kLargeFrame);
    }).join();
    EXPECT_EQ(FramePool::processSlabBytes(), before);
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

/**
 * @file
 * Synchronization primitives for simulated tasks: Latch (join: a
 * countdown that also owns the tasks spawned through it), Gate
 * (one-shot event, a latch of one), Semaphore (FIFO counted
 * resource), and Channel<T> (unbounded FIFO message queue). All
 * wake-ups are funnelled through the simulation event queue so
 * same-time ordering stays deterministic: a latch's waiters resume
 * behind the events already queued for the instant its count reaches
 * zero, never inline in the last child.
 */

#ifndef VHIVE_SIM_SYNC_HH
#define VHIVE_SIM_SYNC_HH

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/simulation.hh"
#include "sim/small_ring.hh"
#include "sim/task.hh"
#include "util/logging.hh"

namespace vhive::sim {

/**
 * Join of a dynamic set of tasks (e.g. Fig. 9's concurrent cold
 * starts, a fetch's window workers). The count starts at @p count;
 * arrive() takes one off, and spawn() adds one for a task that it
 * starts detached and takes off again at that task's final suspend.
 * wait() is ready while the count is zero. A count that reaches zero
 * wakes only the tasks waiting at that moment, so tasks spawned after
 * a zero re-arm the latch and still join. Destroying the latch while a
 * task spawned through it is live panics, except during simulation
 * teardown: no child outlives its join.
 */
class Latch
{
  public:
    Latch(Simulation &sim, std::int64_t count)
        : sim(sim), remaining(count)
    {
        VHIVE_ASSERT(count >= 0);
    }

    ~Latch()
    {
        if (live > 0 && !sim.tearingDown())
            panic("sim::Latch destroyed with %lld spawned task(s) still "
                  "running", static_cast<long long>(live));
    }

    Latch(const Latch &) = delete;
    Latch &operator=(const Latch &) = delete;

    /** Signal one completion. */
    void
    arrive()
    {
        VHIVE_ASSERT(remaining > 0);
        if (--remaining == 0)
            wakeWaiters();
    }

    /**
     * Start @p task detached at the current time, counted until it
     * ends. Like Simulation::spawn, but joined by wait().
     */
    void
    spawn(Task<void> task)
    {
        auto h = task.release();
        sim.spawn(Task<void>(h));
        h.promise().joiner = this; // after spawn, which clears it
        ++remaining;
        ++live;
    }

    /** True while the count is zero. */
    bool isZero() const { return remaining == 0; }

    /** Awaitable: resume once the count is zero. */
    auto
    wait()
    {
        struct Awaiter {
            Latch &latch;
            bool await_ready() const noexcept { return latch.isZero(); }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                latch.waiters.pushBack(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

  private:
    friend void detail::joinChild(Latch &latch);

    void wakeWaiters();

    Simulation &sim;
    SmallRing<std::coroutine_handle<>> waiters;
    std::int64_t remaining;
    std::int64_t live = 0; ///< spawned tasks that have not ended
};

/**
 * One-shot event: a latch of one. Tasks co_await wait(); openGate()
 * releases all current and future waiters at the current simulated
 * time.
 */
class Gate
{
  public:
    explicit Gate(Simulation &sim) : latch(sim, 1) {}

    /** True once openGate() has been called. */
    bool isOpen() const { return latch.isZero(); }

    /** Release all waiters; idempotent. */
    void
    openGate()
    {
        if (!isOpen())
            latch.arrive();
    }

    /** Awaitable: suspend until the gate opens (no-op if already open). */
    auto wait() { return latch.wait(); }

  private:
    Latch latch;
};

/**
 * Counted resource with FIFO admission. Models disk channels, CPU cores
 * and controller serialization points.
 */
class Semaphore
{
  public:
    Semaphore(Simulation &sim, std::int64_t permits)
        : sim(sim), available(permits)
    {
        VHIVE_ASSERT(permits >= 0);
    }

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    /** Awaitable: obtain one permit, queueing FIFO when exhausted. */
    auto
    acquire()
    {
        struct Awaiter {
            Semaphore &sem;
            bool await_ready() { return sem.tryAcquire(); }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                sem.waiters.pushBack(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Take one permit if one is free, without queueing. */
    bool
    tryAcquire()
    {
        if (available <= 0)
            return false;
        --available;
        return true;
    }

    /** Return one permit, waking the oldest waiter (if any). */
    void release();

    /** Permits currently available. */
    std::int64_t availablePermits() const { return available; }

    /** Tasks currently queued on acquire(). */
    std::int64_t queueLength() const
    {
        return static_cast<std::int64_t>(waiters.size());
    }

  private:
    Simulation &sim;
    SmallRing<std::coroutine_handle<>> waiters;
    std::int64_t available;
};

/**
 * RAII helper: acquire a semaphore for the duration of a scope.
 * Usage: `co_await sem.acquire(); SemaphoreGuard g(sem); ...`
 */
class SemaphoreGuard
{
  public:
    explicit SemaphoreGuard(Semaphore &sem) : sem(&sem) {}
    ~SemaphoreGuard()
    {
        if (sem)
            sem->release();
    }
    SemaphoreGuard(const SemaphoreGuard &) = delete;
    SemaphoreGuard &operator=(const SemaphoreGuard &) = delete;
    SemaphoreGuard(SemaphoreGuard &&o) noexcept : sem(o.sem)
    {
        o.sem = nullptr;
    }

    /** Move assignment releases any permit this guard already holds. */
    SemaphoreGuard &
    operator=(SemaphoreGuard &&o) noexcept
    {
        if (this != &o) {
            if (sem)
                sem->release();
            sem = std::exchange(o.sem, nullptr);
        }
        return *this;
    }

  private:
    Semaphore *sem;
};

/**
 * Unbounded FIFO channel carrying values of type T between tasks.
 * Multiple senders and receivers are allowed; receivers are served in
 * arrival order.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(Simulation &sim) : sim(sim) {}

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /**
     * Enqueue a value. If a receiver is blocked, the value is handed
     * directly to the oldest one (so a later-arriving receiver cannot
     * steal it before the wake-up event fires).
     */
    void
    send(T value)
    {
        if (!receivers.empty()) {
            RecvWaiter w = receivers.popFront();
            w.slot->emplace(std::move(value));
            sim.schedule(w.handle, sim.now());
        } else {
            values.pushBack(std::move(value));
        }
    }

    /** Awaitable: dequeue the next value, blocking while empty. */
    auto
    recv()
    {
        struct Awaiter {
            Channel &ch;
            std::optional<T> slot{};

            bool
            await_ready()
            {
                if (!ch.values.empty()) {
                    slot.emplace(ch.values.popFront());
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ch.receivers.pushBack(RecvWaiter{h, &slot});
            }

            T await_resume() { return std::move(*slot); }
        };
        return Awaiter{*this};
    }

    /** Values waiting to be received. */
    std::int64_t size() const
    {
        return static_cast<std::int64_t>(values.size());
    }

    /** True when no values are queued. */
    bool empty() const { return values.empty(); }

  private:
    struct RecvWaiter {
        std::coroutine_handle<> handle;
        std::optional<T> *slot;
    };

    Simulation &sim;
    SmallRing<T, 8> values;
    SmallRing<RecvWaiter> receivers;
};

} // namespace vhive::sim

#endif // VHIVE_SIM_SYNC_HH

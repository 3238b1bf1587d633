/**
 * @file
 * Discrete-event simulation kernel. A Simulation owns a time-ordered
 * event queue of coroutine resumptions; simulated components are
 * coroutines (sim::Task) that suspend on delays, resources and channels.
 *
 * Determinism: events at equal timestamps fire in schedule (FIFO) order,
 * so a given seed always produces bit-identical results.
 *
 * Hot-path design (see event_queue.hh for the queue): same-timestamp
 * wakeups go through an O(1) FIFO ring, future events through one
 * (when, seq) binary heap, which stays a few hundred events deep at
 * most on the fleet workloads; pop takes the smaller head of the two,
 * so events drain in exact (when, seq) order. Coroutine frames come
 * from the global allocator (glibc's per-thread cache already keeps a
 * free list per size class), and detached tasks sit on an intrusive
 * list threaded through their promises, so spawn/complete never
 * hashes or allocates registry nodes.
 */

#ifndef VHIVE_SIM_SIMULATION_HH
#define VHIVE_SIM_SIMULATION_HH

#include <coroutine>
#include <cstdint>

#include "sim/event_queue.hh"
#include "util/units.hh"

namespace vhive::sim {

template <typename T>
class Task;

namespace detail {
struct PromiseBase;
} // namespace detail

/**
 * The simulation kernel: virtual clock plus pending-event queue.
 *
 * Typical use:
 * @code
 *   Simulation sim;
 *   sim.spawn(server(sim, ...));   // detached forever-loop
 *   auto t = client(sim, ...);     // structured task
 *   t.start(sim);
 *   sim.run();                     // until no runnable events remain
 * @endcode
 */
class Simulation
{
  public:
    Simulation() = default;
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time (ns since simulation start). */
    Time now() const { return _now; }

    /**
     * The simulation whose run loop is executing on this thread, or
     * nullptr outside of Simulation::run. Lets awaitables find their
     * kernel without threading a pointer through every coroutine.
     */
    static Simulation *current();

    /**
     * Schedule a coroutine resume at absolute time @p when (>= now).
     * Used by awaitables; rarely called directly.
     */
    void schedule(std::coroutine_handle<> h, Time when);

    /** Schedule a resume after @p d ns. */
    void scheduleAfter(std::coroutine_handle<> h, Duration d);

    /**
     * Awaitable that suspends the calling task for @p d simulated ns.
     * A non-positive @p d completes immediately.
     */
    auto
    delay(Duration d)
    {
        struct Awaiter {
            Simulation &sim;
            Duration d;
            bool await_ready() const noexcept { return d <= 0; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim.scheduleAfter(h, d);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, d};
    }

    /**
     * Detach-and-run a task: ownership moves to the simulation, the task
     * begins at the current time, and its frame is reclaimed on
     * completion (or at simulation teardown for forever-loops).
     */
    void spawn(Task<void> task);

    /** Run until no events remain. @return final simulated time. */
    Time run();

    /**
     * Run events with timestamp <= @p until, then set the clock to
     * @p until. Events scheduled later stay queued.
     */
    void runUntil(Time until);

    /**
     * Run events with timestamp strictly before @p limit, leaving the
     * clock at the last processed event. Unlike runUntil() the clock
     * is not forced forward, so a later window (or another domain's
     * message delivery at exactly @p limit) still lands in the future.
     * This is the per-domain primitive of the parallel kernel
     * (sim/parallel.hh).
     */
    void runWindow(Time limit);

    /**
     * runWindow variant that additionally stops as soon as @p stop
     * reads true (checked between events). The parallel kernel's solo
     * fast path uses it to re-tighten its bound when the running
     * domain emits a cross-domain message.
     */
    void runWindow(Time limit, const bool &stop);

    /** True when any event is pending. */
    bool hasPending() const { return !queue.empty(); }

    /** Timestamp of the earliest pending event; requires hasPending(). */
    Time nextPendingWhen() const { return queue.nextWhen(); }

    /** Number of events processed so far (for tests/diagnostics). */
    std::int64_t eventsProcessed() const { return _eventsProcessed; }

    /** True while the destructor reclaims outstanding coroutines. */
    bool tearingDown() const { return _tearingDown; }

    /** @name Detached-task registry (internal; used by Task). */
    /// @{
    void registerDetached(detail::PromiseBase &p);
    void unregisterDetached(detail::PromiseBase &p);
    /// @}

  private:
    void step(const Event &ev);

    KernelQueue queue;
    detail::PromiseBase *detachedHead = nullptr;
    Time _now = 0;
    std::uint64_t nextSeq = 0;
    std::int64_t _eventsProcessed = 0;
    bool _tearingDown = false;
};

} // namespace vhive::sim

#endif // VHIVE_SIM_SIMULATION_HH

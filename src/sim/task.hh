/**
 * @file
 * Coroutine task type for the DES kernel. Task<T> is a lazily-started
 * coroutine returning T. Tasks compose structurally via co_await, or run
 * detached via Simulation::spawn for forever-loop servers.
 *
 * Lifetime rules:
 *  - co_await task       starts (if needed) and joins; parent owns frame.
 *  - task.start(sim)     schedules the first resume at the current time;
 *                        the Task object still owns the frame and must be
 *                        co_awaited (or outlive completion).
 *  - sim.spawn(move(t))  detaches; the frame self-destroys on completion
 *                        or is reclaimed at simulation teardown.
 *  - latch.spawn(move(t)) detaches like sim.spawn and joins: the latch
 *                        counts the task until its final suspend, so
 *                        latch.wait() returns only after the task ended.
 *                        The latch must outlive the task; destroying it
 *                        first panics outside simulation teardown.
 */

#ifndef VHIVE_SIM_TASK_HH
#define VHIVE_SIM_TASK_HH

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "sim/simulation.hh"
#include "util/logging.hh"

namespace vhive::sim {

template <typename T>
class Task;

class Latch;

namespace detail {

/** A task spawned through @p latch ended (defined in sync.cc). */
void joinChild(Latch &latch);

/** State shared by all task promises. */
struct PromiseBase
{
    /**
     * Who joins this task: the awaiting parent, or, once detached, the
     * latch it was spawned through (Latch::spawn; null for a plain
     * Simulation::spawn). The two never coexist, so they share one
     * pointer and a detached task's frame is no larger for the hook.
     */
    union {
        std::coroutine_handle<> continuation{};
        Latch *joiner;
    };
    Simulation *sim = nullptr;
    bool started = false;
    bool detached = false;
    std::exception_ptr exception;

    /**
     * Intrusive detached-registry state (see
     * Simulation::registerDetached): spawn links the promise into the
     * simulation's list and records the type-erased frame handle for
     * teardown, so detaching costs two pointer writes instead of a
     * hash-set insertion.
     */
    std::coroutine_handle<> self;
    PromiseBase *detachedPrev = nullptr;
    PromiseBase *detachedNext = nullptr;

    std::suspend_always initial_suspend() noexcept { return {}; }

    void unhandled_exception() { exception = std::current_exception(); }

    /**
     * On completion: resume the joining parent via symmetric transfer,
     * or self-destroy when detached, first arriving at the joining
     * latch if there is one.
     */
    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            auto &p = h.promise();
            if (!p.detached)
                return p.continuation ? p.continuation
                                      : std::noop_coroutine();
            if (p.exception) {
                // A detached task must not fail silently.
                panic("unhandled exception in detached sim task");
            }
            if (p.sim)
                p.sim->unregisterDetached(p);
            if (p.joiner)
                joinChild(*p.joiner);
            h.destroy();
            return std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }
};

template <typename T>
struct TaskPromise : PromiseBase
{
    std::optional<T> result;

    Task<T> get_return_object();

    void
    return_value(T v)
    {
        result.emplace(std::move(v));
    }
};

template <>
struct TaskPromise<void> : PromiseBase
{
    Task<void> get_return_object();

    void return_void() {}
};

} // namespace detail

/**
 * A lazily-started coroutine computing a T inside the simulation.
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    using promise_type = detail::TaskPromise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Task() = default;
    explicit Task(Handle h) : coro(h) {}

    Task(Task &&other) noexcept : coro(std::exchange(other.coro, {})) {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            reset();
            coro = std::exchange(other.coro, {});
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { reset(); }

    /** True if this Task owns a coroutine frame. */
    bool valid() const { return static_cast<bool>(coro); }

    /** True once the coroutine ran to completion. */
    bool done() const { return coro && coro.done(); }

    /**
     * Schedule the first resume at the simulation's current time. Allows
     * fork/join concurrency: start several tasks, then co_await each.
     */
    void
    start(Simulation &sim)
    {
        VHIVE_ASSERT(coro);
        auto &p = coro.promise();
        if (p.started)
            return;
        p.started = true;
        p.sim = &sim;
        sim.schedule(coro, sim.now());
    }

    /** Awaiting a task starts it (if necessary) and joins it. */
    auto
    operator co_await() noexcept
    {
        struct Awaiter {
            Handle coro;

            bool await_ready() const noexcept { return coro.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent) noexcept
            {
                auto &p = coro.promise();
                p.continuation = parent;
                if (!p.started) {
                    p.started = true;
                    p.sim = Simulation::current();
                    return coro; // run child inline at this timestamp
                }
                // Already running; final awaiter will resume us.
                return std::noop_coroutine();
            }

            T
            await_resume()
            {
                auto &p = coro.promise();
                if (p.exception)
                    std::rethrow_exception(p.exception);
                if constexpr (!std::is_void_v<T>)
                    return std::move(*p.result);
            }
        };
        VHIVE_ASSERT(coro);
        return Awaiter{coro};
    }

    /**
     * Release ownership of the frame (used by Simulation::spawn).
     * @return the raw handle.
     */
    Handle release() { return std::exchange(coro, {}); }

  private:
    void
    reset()
    {
        if (!coro)
            return;
        auto &p = coro.promise();
        if (p.started && !coro.done()) {
            // Dropping a live task is only legal during simulation
            // teardown, where queued handles are never resumed again.
            if (!(p.sim && p.sim->tearingDown()))
                panic("sim::Task destroyed while still running");
        }
        coro.destroy();
        coro = {};
    }

    Handle coro;
};

namespace detail {

template <typename T>
Task<T>
TaskPromise<T>::get_return_object()
{
    return Task<T>(
        std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void>
TaskPromise<void>::get_return_object()
{
    return Task<void>(
        std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace vhive::sim

#endif // VHIVE_SIM_TASK_HH

/**
 * @file
 * Host CPU model: a pool of cores shared by simulated computations.
 * The evaluation platform is a 2x24-core Xeon (48 logical cores), with
 * 16 hardware threads made available to orchestrator goroutines
 * (Sec. 6.2), so contention matters for the Fig. 9 concurrency sweep.
 */

#ifndef VHIVE_HOST_CPU_POOL_HH
#define VHIVE_HOST_CPU_POOL_HH

#include <coroutine>

#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::host {

/**
 * A bank of CPU cores. exec() occupies one core for a given amount of
 * CPU time; callers queue FIFO when all cores are busy.
 */
class CpuPool
{
  public:
    CpuPool(sim::Simulation &sim, int cores)
        : sim(sim), _cores(cores), sem(sim, cores)
    {
    }

    CpuPool(const CpuPool &) = delete;
    CpuPool &operator=(const CpuPool &) = delete;

    class Exec;

    /**
     * Run @p cpu_time of work on one core (queueing if none free).
     * Awaiting it allocates no coroutine frame when a core is free
     * (see Exec).
     */
    Exec exec(Duration cpu_time);

    /** Total cores in the pool. */
    int cores() const { return _cores; }

    /** Cores currently idle. */
    std::int64_t idleCores() const { return sem.availablePermits(); }

    /** Tasks waiting for a core. */
    std::int64_t runQueueLength() const { return sem.queueLength(); }

  private:
    /** exec() that must queue for a core, or has no time to run. */
    sim::Task<void> execQueued(Duration cpu_time);

    sim::Simulation &sim;
    int _cores;
    sim::Semaphore sem;
};

/**
 * Awaitable of CpuPool::exec(). When the work takes time and a core is
 * free at co_await, the awaiter takes the core, resumes its caller
 * after the work and gives the core back as the caller resumes: the
 * same acquire, event and release, in the same order, as execQueued()
 * on a free core, without its frame. Otherwise (a full pool, or no
 * work time) it awaits execQueued().
 */
class CpuPool::Exec
{
  public:
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> caller)
    {
        if (cpuTime > 0 && pool.sem.tryAcquire()) {
            holdsCore = true;
            pool.sim.scheduleAfter(caller, cpuTime);
            return std::noop_coroutine();
        }
        queued = pool.execQueued(cpuTime);
        return queued.operator co_await().await_suspend(caller);
    }

    void
    await_resume()
    {
        if (holdsCore)
            pool.sem.release();
        else
            queued.operator co_await().await_resume();
    }

  private:
    friend class CpuPool;

    Exec(CpuPool &pool, Duration cpu_time)
        : pool(pool), cpuTime(cpu_time)
    {
    }

    CpuPool &pool;
    Duration cpuTime;
    bool holdsCore = false;
    sim::Task<void> queued;
};

inline CpuPool::Exec
CpuPool::exec(Duration cpu_time)
{
    return Exec(*this, cpu_time);
}

} // namespace vhive::host

#endif // VHIVE_HOST_CPU_POOL_HH

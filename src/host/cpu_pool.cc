#include "host/cpu_pool.hh"

namespace vhive::host {

sim::Task<void>
CpuPool::execQueued(Duration cpu_time)
{
    co_await sem.acquire();
    sim::SemaphoreGuard guard(sem);
    co_await sim.delay(cpu_time);
}

} // namespace vhive::host

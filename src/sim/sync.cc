#include "sim/sync.hh"

namespace vhive::sim {

void
Latch::wakeWaiters()
{
    while (!waiters.empty())
        sim.schedule(waiters.popFront(), sim.now());
}

void
detail::joinChild(Latch &latch)
{
    --latch.live;
    latch.arrive();
}

void
Semaphore::release()
{
    if (!waiters.empty()) {
        // Hand the permit directly to the waiter: available stays 0.
        sim.schedule(waiters.popFront(), sim.now());
    } else {
        ++available;
    }
}

} // namespace vhive::sim

/**
 * @file
 * KernelQueue: the two-level pending-event queue for the DES kernel.
 *
 * The dominant scheduling pattern in this codebase is a wakeup at the
 * *current* timestamp: every Channel::send handoff, Gate::openGate,
 * Semaphore::release and Simulation::spawn resumes a coroutine at
 * sim.now(). A binary heap pays O(log n) sift plus Event copies for
 * each of those; this queue splits the work by destination time:
 *
 *  - level 1, the "now ring": a FIFO ring buffer holding events
 *    scheduled at the current timestamp. Push and pop are O(1); FIFO
 *    order is exactly ascending-seq order because seq is globally
 *    monotonic.
 *  - level 2, the future heap: a binary min-heap on (when, seq) for
 *    events scheduled past the clock, driven by std::push_heap /
 *    std::pop_heap.
 *
 * Why two levels suffice: future traffic is shallow. Measured over
 * every Simulation of the three bench/e2e workloads (seed 1), the
 * largest future heap ever held was 42 events on host-reap-burst, 190
 * on fleet-tiered-t2 and 256 on fleet-dedup-burst, and the mean depth
 * at push, the pushed event included, was 2-12. A heap that small
 * sifts in a few compares. Bucketed levels (a timing wheel) would add
 * code and fixed per-Simulation storage, which the parallel kernel
 * pays once per domain, to speed up sifts that are already short.
 *
 * Determinism contract (the golden-trace referee): pop() returns the
 * pending event with the lexicographically smallest (when, seq), so
 * equal-timestamp events drain in exact schedule (FIFO) order no
 * matter which level they landed in. The clock can only advance when
 * the ring is empty, which preserves the ring invariant that all its
 * entries share the current timestamp. tests/test_properties.cc
 * checks the pop order against a reference heap under random
 * schedules.
 */

#ifndef VHIVE_SIM_EVENT_QUEUE_HH
#define VHIVE_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/small_ring.hh"
#include "util/units.hh"

namespace vhive::sim {

/** One pending coroutine resumption. */
struct Event {
    Time when;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
};

class KernelQueue
{
  public:
    bool empty() const { return ring.empty() && heap.empty(); }

    std::size_t size() const { return ring.size() + heap.size(); }

    /**
     * Enqueue a resumption. @p now is the simulation clock: events for
     * the current instant take the O(1) ring, later ones the heap.
     */
    void
    push(Time when, std::uint64_t seq, std::coroutine_handle<> h,
         Time now)
    {
        if (when == now) {
            ring.pushBack(Event{when, seq, h});
        } else {
            heap.push_back(Event{when, seq, h});
            std::push_heap(heap.begin(), heap.end(), After{});
        }
    }

    /** Timestamp of the next pending event. Requires !empty(). */
    Time
    nextWhen() const
    {
        // Ring entries sit at the current instant, so when both levels
        // are populated the ring's timestamp is never later.
        return ring.empty() ? heap.front().when : ring.front().when;
    }

    /** Dequeue the event with the smallest (when, seq). */
    Event
    pop()
    {
        if (ring.empty())
            return popHeap();
        // A heap event due at the ring's instant was scheduled before
        // the clock reached it, so it may carry a smaller seq.
        if (!heap.empty() && heap.front().when == ring.front().when &&
            heap.front().seq < ring.front().seq)
            return popHeap();
        return ring.popFront();
    }

  private:
    /** Min-heap comparator for std::{push,pop}_heap. */
    struct After {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Event
    popHeap()
    {
        std::pop_heap(heap.begin(), heap.end(), After{});
        Event top = heap.back();
        heap.pop_back();
        return top;
    }

    SmallRing<Event, 64> ring;

    /** Events past the current instant; min-heap on (when, seq). */
    std::vector<Event> heap;
};

} // namespace vhive::sim

#endif // VHIVE_SIM_EVENT_QUEUE_HH

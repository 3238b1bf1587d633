#include "sim/simulation.hh"

#include "sim/task.hh"
#include "util/logging.hh"

namespace vhive::sim {

namespace {
thread_local Simulation *g_current = nullptr;
} // namespace

Simulation *
Simulation::current()
{
    return g_current;
}

Simulation::~Simulation()
{
    _tearingDown = true;
    // Reclaim detached forever-loop tasks that never completed. Their
    // frames cascade-destroy any structured children they own. Unlink
    // each promise before destroying it so a re-entrant unregister
    // (from child teardown) sees a consistent list.
    while (detachedHead) {
        detail::PromiseBase *p = detachedHead;
        detachedHead = p->detachedNext;
        if (detachedHead)
            detachedHead->detachedPrev = nullptr;
        p->detachedPrev = p->detachedNext = nullptr;
        p->self.destroy();
    }
}

void
Simulation::schedule(std::coroutine_handle<> h, Time when)
{
    VHIVE_ASSERT(h);
    if (when < _now)
        panic("scheduling into the past (%lld < %lld)",
              static_cast<long long>(when), static_cast<long long>(_now));
    queue.push(when, nextSeq++, h, _now);
}

void
Simulation::scheduleAfter(std::coroutine_handle<> h, Duration d)
{
    schedule(h, _now + (d > 0 ? d : 0));
}

void
Simulation::spawn(Task<void> task)
{
    VHIVE_ASSERT(task.valid());
    auto handle = task.release();
    auto &p = handle.promise();
    VHIVE_ASSERT(!p.started);
    p.started = true;
    p.detached = true;
    p.joiner = nullptr;
    p.sim = this;
    p.self = handle;
    registerDetached(p);
    schedule(handle, _now);
}

void
Simulation::registerDetached(detail::PromiseBase &p)
{
    p.detachedPrev = nullptr;
    p.detachedNext = detachedHead;
    if (detachedHead)
        detachedHead->detachedPrev = &p;
    detachedHead = &p;
}

void
Simulation::unregisterDetached(detail::PromiseBase &p)
{
    if (p.detachedPrev) {
        p.detachedPrev->detachedNext = p.detachedNext;
    } else if (detachedHead == &p) {
        detachedHead = p.detachedNext;
    } else {
        return; // already unlinked (teardown popped it first)
    }
    if (p.detachedNext)
        p.detachedNext->detachedPrev = p.detachedPrev;
    p.detachedPrev = p.detachedNext = nullptr;
}

void
Simulation::step(const Event &ev)
{
    _now = ev.when;
    ++_eventsProcessed;
    Simulation *prev = g_current;
    g_current = this;
    ev.handle.resume();
    g_current = prev;
}

Time
Simulation::run()
{
    while (!queue.empty()) {
        Event ev = queue.pop();
        step(ev);
    }
    return _now;
}

void
Simulation::runUntil(Time until)
{
    VHIVE_ASSERT(until >= _now);
    while (!queue.empty() && queue.nextWhen() <= until) {
        Event ev = queue.pop();
        step(ev);
    }
    _now = until;
}

void
Simulation::runWindow(Time limit)
{
    while (!queue.empty() && queue.nextWhen() < limit) {
        Event ev = queue.pop();
        step(ev);
    }
}

void
Simulation::runWindow(Time limit, const bool &stop)
{
    while (!stop && !queue.empty() && queue.nextWhen() < limit) {
        Event ev = queue.pop();
        step(ev);
    }
}

} // namespace vhive::sim

#include "sim/parallel.hh"

namespace vhive::sim {

namespace {

/**
 * Pause iterations a waiting thread spins before it parks (pool) or
 * starts yielding its core (coordinator). About 0.5 ms on a current
 * x86 core (~25 ns per pause): long enough to span the coordinator's
 * serial work between two multi-domain windows, which is microseconds,
 * so those hand-offs never reach a futex; short enough that a solo
 * stretch of a millisecond or more parks the pool rather than keeping
 * its cores busy.
 */
constexpr int kSpinBudget = 20000;

/** Tell the core this is a spin-wait loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

ParallelKernel::ParallelKernel(int domains, int threads)
    : _threads(threads)
{
    VHIVE_ASSERT(domains >= 1);
    VHIVE_ASSERT(threads >= 1);
    _domains.reserve(static_cast<std::size_t>(domains));
    for (int i = 0; i < domains; ++i)
        _domains.emplace_back(new Domain(i));
}

ParallelKernel::~ParallelKernel()
{
    // The epoch bump that wakes the pool also publishes _shutdown.
    _shutdown.store(true, std::memory_order_relaxed);
    _epoch.fetch_add(1, std::memory_order_release);
    _epoch.notify_all();
    for (auto &t : _pool)
        t.join();
}

std::int64_t
ParallelKernel::totalEventsProcessed() const
{
    std::int64_t total = 0;
    for (const auto &d : _domains)
        total += d->_sim.eventsProcessed();
    return total;
}

void
ParallelKernel::collectOutboxes()
{
    // Domain-index order keeps heap insertion deterministic (the heap
    // order itself is total on (deliverAt, srcDomain, srcSeq), so this
    // is belt and braces).
    for (auto &d : _domains) {
        for (auto &m : d->outbox) {
            _inflight.push_back(std::move(m));
            std::push_heap(_inflight.begin(), _inflight.end(),
                           LaterDelivery{});
        }
        d->outbox.clear();
    }
}

void
ParallelKernel::deliverDue(Time horizon)
{
    while (!_inflight.empty() &&
           _inflight.front().deliverAt < horizon) {
        std::pop_heap(_inflight.begin(), _inflight.end(),
                      LaterDelivery{});
        CrossMessage m = std::move(_inflight.back());
        _inflight.pop_back();
        m.deliver();
        ++_stats.messages;
    }
}

void
ParallelKernel::runSolo(int d, Time other_bound)
{
    Domain &dom = *_domains[static_cast<std::size_t>(d)];
    // Run past the window for as long as nothing can intervene. A
    // pending message m bounds the stretch at:
    //  - m.deliverAt when it targets this domain (it must not see
    //    events past its own arrival), or
    //  - m.deliverAt + lookahead otherwise: its target wakes at
    //    m.deliverAt, and the earliest consequence that can reach
    //    this domain is one port latency later.
    // Another domain's own timer wakes bound us the same way
    // (other_bound = min next event + lookahead, precomputed by the
    // caller). Messages this domain emits mid-stretch interrupt
    // runWindow via outboxGrew so the bound re-tightens around them.
    for (;;) {
        Time bound = other_bound;
        for (const auto &m : _inflight)
            bound = std::min(bound, m.dstDomain == d
                                        ? m.deliverAt
                                        : satAdd(m.deliverAt,
                                                 _lookahead));
        for (const auto &m : dom.outbox)
            bound = std::min(bound, satAdd(m.deliverAt, _lookahead));
        if (!dom._sim.hasPending() ||
            dom._sim.nextPendingWhen() >= bound)
            break;
        dom.outboxGrew = false;
        dom._sim.runWindow(bound, dom.outboxGrew);
    }
    dom.outboxGrew = false;
    ++_stats.soloWindows;
}

std::optional<std::size_t>
ParallelKernel::claimWork(std::uint32_t epoch, std::size_t work_count)
{
    std::uint64_t cur = _claim.load(std::memory_order_acquire);
    for (;;) {
        if ((cur >> 32) != epoch)
            return std::nullopt; // kernel moved to another window
        std::size_t i = static_cast<std::size_t>(cur & 0xffffffffu);
        if (i >= work_count)
            return std::nullopt; // window's work list exhausted
        if (_claim.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
            return i;
    }
}

std::size_t
ParallelKernel::runClaims(std::uint32_t epoch, Time window_end,
                          std::size_t work_count)
{
    std::size_t done = 0;
    while (auto i = claimWork(epoch, work_count)) {
        _domains[static_cast<std::size_t>(_work[*i])]->_sim.runWindow(
            window_end);
        ++done;
    }
    return done;
}

void
ParallelKernel::runWindowParallel(Time window_end)
{
    if (_pool.empty() && _threads > 1) {
        _pool.reserve(static_cast<std::size_t>(_threads - 1));
        for (int i = 0; i < _threads - 1; ++i)
            _pool.emplace_back([this] { workerLoop(); });
    }
    const std::size_t work_count = _work.size();
    VHIVE_ASSERT(work_count <= 0xffffffffu);
    const std::uint32_t epoch =
        _epoch.load(std::memory_order_relaxed) + 1;

    // Retag the claim word before storing the window's end and count:
    // a worker still on the previous epoch that reads either of them
    // (acquire) then also sees the new tag, and its claims fail.
    _claim.store(static_cast<std::uint64_t>(epoch) << 32,
                 std::memory_order_release);
    _windowEnd.store(window_end, std::memory_order_release);
    _workCount.store(work_count, std::memory_order_release);
    _pending.store(work_count, std::memory_order_relaxed);
    _epoch.store(epoch, std::memory_order_release);
    // No syscall unless some pool thread has parked.
    _epoch.notify_all();

    // The coordinator is a full participant in the window.
    std::size_t done = runClaims(epoch, window_end, work_count);
    _pending.fetch_sub(done, std::memory_order_relaxed);
    for (int spins = 0; _pending.load(std::memory_order_acquire) != 0;) {
        if (spins < kSpinBudget) {
            ++spins;
            cpuRelax();
        } else {
            std::this_thread::yield();
        }
    }
    ++_stats.multiDomainWindows;
}

std::uint32_t
ParallelKernel::awaitWindow(std::uint32_t seen)
{
    for (int spins = 0; spins < kSpinBudget; ++spins) {
        std::uint32_t e = _epoch.load(std::memory_order_acquire);
        if (e != seen)
            return e;
        cpuRelax();
    }
    _epoch.wait(seen, std::memory_order_acquire);
    return _epoch.load(std::memory_order_acquire);
}

void
ParallelKernel::workerLoop()
{
    std::uint32_t seen = 0;
    for (;;) {
        seen = awaitWindow(seen);
        if (_shutdown.load(std::memory_order_relaxed))
            return;
        // These may already belong to a newer window than `seen` if
        // this thread stalled here; claimWork validates `seen` against
        // the claim word, so every claim then fails and the loop falls
        // through without touching the rewritten work list.
        Time window_end = _windowEnd.load(std::memory_order_acquire);
        std::size_t work_count =
            _workCount.load(std::memory_order_acquire);
        std::size_t done = runClaims(seen, window_end, work_count);
        if (done > 0)
            _pending.fetch_sub(done, std::memory_order_release);
    }
}

void
ParallelKernel::run()
{
    for (;;) {
        collectOutboxes();

        // Global horizon: the earliest thing that can happen anywhere.
        Time horizon = nextDeliveryAt();
        for (auto &d : _domains)
            if (d->_sim.hasPending())
                horizon = std::min(horizon, d->_sim.nextPendingWhen());
        if (horizon == kNeverTime)
            return; // globally quiescent

        Time window_end = satAdd(horizon, _lookahead);

        // Messages maturing inside the window arrive before any domain
        // runs; deliveries are (deliverAt, srcDomain, srcSeq)-sorted.
        deliverDue(window_end);

        _work.clear();
        for (auto &d : _domains)
            if (d->_sim.hasPending() &&
                d->_sim.nextPendingWhen() < window_end)
                _work.push_back(d->id());
        ++_stats.windows;

        if (_work.empty()) {
            // Deliveries parked values without waking anyone; the next
            // iteration recomputes the horizon further out. Progress
            // is guaranteed because deliverDue consumed messages.
            continue;
        }
        if (_work.size() == 1) {
            // The earliest instant any *other* domain could wake and
            // emit a message bounds how far the lone runnable domain
            // may race ahead.
            Time others = kNeverTime;
            for (auto &d : _domains)
                if (d->id() != _work[0] && d->_sim.hasPending())
                    others =
                        std::min(others, d->_sim.nextPendingWhen());
            runSolo(_work[0], satAdd(others, _lookahead));
        } else if (_threads == 1) {
            for (int d : _work)
                _domains[static_cast<std::size_t>(d)]->_sim.runWindow(
                    window_end);
            ++_stats.multiDomainWindows;
        } else {
            runWindowParallel(window_end);
        }
    }
}

} // namespace vhive::sim

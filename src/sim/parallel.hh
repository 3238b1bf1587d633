/**
 * @file
 * Conservative parallel DES kernel: shard a simulation into domains,
 * one Simulation (KernelQueue + clock + coroutine scheduler) each, and
 * run them on a thread pool in bounded time windows.
 *
 * Model
 * -----
 * Domains interact ONLY through CrossPort<T> channels, each with a
 * fixed minimum latency L >= 1 ns. The kernel repeatedly:
 *
 *  1. collects every domain's outbox into a global in-flight set,
 *  2. computes the global horizon T = min(next event, next delivery)
 *     and the window end W = T + lookahead (lookahead = min port
 *     latency over the whole kernel),
 *  3. delivers in-flight messages with deliverAt < W, sorted by
 *     (deliverAt, srcDomain, srcSeq),
 *  4. runs every domain with a runnable event before W concurrently —
 *     each executes Simulation::runWindow(W) on its own thread.
 *
 * Because a message sent inside window [T, W) is delivered no earlier
 * than now + L >= T + L = W, no domain can observe a message born in
 * the window it is executing: windows are causally closed, so the
 * domains are embarrassingly parallel inside one.
 *
 * Determinism
 * -----------
 * Every source of order is derived from simulated time and per-domain
 * sequence numbers, never from thread scheduling:
 *  - within a domain, the sequential kernel's (when, seq) contract
 *    holds untouched;
 *  - deliveries are sorted by (deliverAt, srcDomain, srcSeq), where
 *    srcSeq is a per-domain counter, so the destination's event seq
 *    assignment is reproducible;
 *  - window boundaries depend only on event/message timestamps.
 * Hence results are bit-identical across thread counts (threads = 1
 * serves as the reference), which tests/test_parallel.cc asserts.
 *
 * The single-runnable-domain fast path: when only one domain has work
 * before W, the kernel runs it inline past W, up to the earliest
 * undelivered message (whose delivery could wake another domain or
 * re-target this one). This keeps the common "one busy worker" phases
 * from paying a barrier per lookahead quantum; the bound depends only
 * on message state, so it cannot perturb determinism.
 *
 * Threading
 * ---------
 * The pool is engaged per window with a work-stealing index over the
 * runnable-domain list. The index lives in a packed claim word
 * (epoch | next index) and every claim validates the epoch in the
 * same CAS that advances the index, so a worker still holding state
 * cached from an earlier window can never claim — or even read — the
 * current window's work list.
 *
 * Windows are handed off without a lock. The coordinator retags the
 * claim word, stores the window end, work count and pending count,
 * then publishes the window by a release store of an atomic epoch.
 * Pool threads spin on the epoch for kSpinBudget pause iterations
 * (about half a millisecond on a current x86 core) and only then park
 * in std::atomic::wait. Back-to-back multi-domain windows, a few
 * microseconds apart, therefore meet a spinning pool and make no
 * syscall; a long solo stretch parks the pool instead of burning its
 * cores. Completion is an atomic pending count that the coordinator
 * spins on, yielding its core once the same budget is spent. Every
 * cross-thread hand-off of domain state is a release/acquire pair
 * (epoch or claim word in, pending count out), so the kernel is
 * ThreadSanitizer-clean. None of this touches what a window contains:
 * window bounds, work lists and delivery order are computed by the
 * coordinator alone from simulated state, so results stay
 * bit-identical however the pool's threads are scheduled.
 *
 * Coroutine frames come from the global allocator, so a frame may be
 * freed on a different pool thread than it was allocated on.
 */

#ifndef VHIVE_SIM_PARALLEL_HH
#define VHIVE_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "sim/simulation.hh"
#include "sim/small_ring.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace vhive::sim {

class ParallelKernel;

/** Sentinel for "no pending time" comparisons. */
inline constexpr Time kNeverTime = std::numeric_limits<Time>::max();

/** A cross-domain message parked until its delivery barrier. */
struct CrossMessage {
    Time deliverAt;
    int srcDomain;
    std::uint64_t srcSeq;
    int dstDomain;

    /** Runs on the coordinator thread at delivery. */
    std::function<void()> deliver;
};

/**
 * One shard of the simulation: a private Simulation plus an outbox of
 * messages awaiting collection. All tasks spawned into sim() must
 * confine their effects to this domain or go through a CrossPort.
 */
class Domain
{
  public:
    Domain(const Domain &) = delete;
    Domain &operator=(const Domain &) = delete;

    Simulation &sim() { return _sim; }
    const Simulation &sim() const { return _sim; }
    int id() const { return _id; }

  private:
    friend class ParallelKernel;
    template <typename T>
    friend class CrossPort;

    explicit Domain(int id) : _id(id) {}

    int _id;
    Simulation _sim;

    /** Messages sent this window, in send order (deliverAt monotone
     * per port but not across ports; collection sorts globally). */
    std::vector<CrossMessage> outbox;

    /** Per-domain send counter; breaks same-instant delivery ties. */
    std::uint64_t msgSeq = 0;

    /**
     * Set by CrossPort::send; the solo fast path interrupts its
     * current stretch on this so a freshly emitted message can
     * tighten the safe bound.
     */
    bool outboxGrew = false;
};

/**
 * The coordinator: owns the domains, the in-flight message set and the
 * worker pool, and advances all domains in lockstep windows until the
 * whole system is quiescent.
 */
class ParallelKernel
{
  public:
    /** Progress counters (for benches and determinism digests). */
    struct Stats {
        /** Synchronization windows executed (incl. solo stretches). */
        std::int64_t windows = 0;

        /** Windows where >= 2 domains ran (pool-eligible). */
        std::int64_t multiDomainWindows = 0;

        /** Windows taken by the single-domain fast path. */
        std::int64_t soloWindows = 0;

        /** Cross-domain messages delivered. */
        std::int64_t messages = 0;
    };

    /**
     * @param domains Number of shards to create.
     * @param threads Worker threads to run windows on (>= 1). Thread
     *        count affects wall-clock only, never results.
     */
    explicit ParallelKernel(int domains, int threads = 1);
    ~ParallelKernel();

    ParallelKernel(const ParallelKernel &) = delete;
    ParallelKernel &operator=(const ParallelKernel &) = delete;

    int domainCount() const { return static_cast<int>(_domains.size()); }

    Domain &domain(int i) { return *_domains[static_cast<size_t>(i)]; }

    /** Shorthand for domain(i).sim(). */
    Simulation &sim(int i) { return domain(i).sim(); }

    /** Run every domain until no events or messages remain anywhere. */
    void run();

    /** Sum of events processed across all domains. */
    std::int64_t totalEventsProcessed() const;

    const Stats &stats() const { return _stats; }

  private:
    template <typename T>
    friend class CrossPort;

    /** Called by CrossPort construction; shrinks the lookahead. */
    void
    notePortLatency(Duration latency)
    {
        VHIVE_ASSERT(latency >= 1);
        _lookahead = std::min(_lookahead, latency);
    }

    /** Move every domain's outbox into the in-flight heap. */
    void collectOutboxes();

    /** Deliver in-flight messages with deliverAt < @p horizon. */
    void deliverDue(Time horizon);

    /** Earliest in-flight delivery time, or kNeverTime. */
    Time
    nextDeliveryAt() const
    {
        return _inflight.empty() ? kNeverTime : _inflight.front().deliverAt;
    }

    /** Run the single runnable domain inline past the window. */
    void runSolo(int d, Time other_bound);

    /** Dispatch the runnable list to the pool and join the window. */
    void runWindowParallel(Time window_end);

    void workerLoop();

    /** Spin, then park, until the epoch moves past @p seen. */
    std::uint32_t awaitWindow(std::uint32_t seen);

    /** Claim and run _work items of window @p epoch; returns how many. */
    std::size_t runClaims(std::uint32_t epoch, Time window_end,
                          std::size_t work_count);

    /**
     * Claim the next _work index for window @p epoch, or nothing when
     * the list is exhausted or the kernel has moved on to a different
     * window. Epoch validation and index advance happen in one CAS,
     * so a claimant holding stale window state can neither consume
     * nor skip an index of the current window.
     */
    std::optional<std::size_t> claimWork(std::uint32_t epoch,
                                         std::size_t work_count);

    static Time
    satAdd(Time t, Duration d)
    {
        return (t > kNeverTime - d) ? kNeverTime : t + d;
    }

    /** Min-heap comparator on (deliverAt, srcDomain, srcSeq). */
    struct LaterDelivery {
        bool
        operator()(const CrossMessage &a, const CrossMessage &b) const
        {
            if (a.deliverAt != b.deliverAt)
                return a.deliverAt > b.deliverAt;
            if (a.srcDomain != b.srcDomain)
                return a.srcDomain > b.srcDomain;
            return a.srcSeq > b.srcSeq;
        }
    };

    std::vector<std::unique_ptr<Domain>> _domains;

    /** Min-heap of undelivered cross-domain messages. */
    std::vector<CrossMessage> _inflight;

    /** Window width: min CrossPort latency (kNeverTime if no ports). */
    Duration _lookahead = kNeverTime;

    Stats _stats;
    int _threads;

    /** @name Worker pool (created lazily on the first run() needing it). */
    /// @{
    std::vector<int> _work;

    /**
     * Packed claim word: window epoch in the upper 32 bits, next
     * _work index in the lower 32. Guards against a worker preempted
     * between seeing window N and its first claim: by the time it
     * resumes in window N+1 the stored epoch has changed, so its
     * claims fail instead of reading the rewritten _work. It is
     * retagged before the next window's end and count are stored, so
     * a stale worker that reads those never passes a claim either.
     * (Aliasing a wrapped epoch would require a worker to stall
     * through 2^32 full windows.)
     */
    std::atomic<std::uint64_t> _claim{0};

    /**
     * The current window's end and work count. A thread still holding
     * an older epoch may read newer values; its claims then fail.
     */
    std::atomic<Time> _windowEnd{0};
    std::atomic<std::size_t> _workCount{0};

    /** Work items of the current window not yet finished. */
    std::atomic<std::size_t> _pending{0};

    /** Publishes a window (or shutdown) to the pool; waited on. */
    std::atomic<std::uint32_t> _epoch{0};
    std::atomic<bool> _shutdown{false};

    /** Declared last: joined in the destructor before the rest go. */
    std::vector<std::thread> _pool;
    /// @}
};

/**
 * Typed, latency-bearing, FIFO message channel from one domain to
 * another. send() is callable only from src-domain tasks; recv() only
 * from dst-domain tasks. Values become visible to the receiver exactly
 * at send-time + latency, with same-instant deliveries ordered by the
 * sender's send order.
 */
template <typename T>
class CrossPort
{
  public:
    CrossPort(ParallelKernel &kernel, Domain &src, Domain &dst,
              Duration latency)
        : _src(src), _dst(dst), _latency(latency)
    {
        VHIVE_ASSERT(&src != &dst);
        kernel.notePortLatency(latency);
    }

    CrossPort(const CrossPort &) = delete;
    CrossPort &operator=(const CrossPort &) = delete;

    /** Send @p value; it arrives at the destination after latency(). */
    void
    send(T value)
    {
        Time at = _src._sim.now() + _latency;
        _src.outbox.push_back(CrossMessage{
            at, _src.id(), _src.msgSeq++, _dst.id(),
            [this, at, v = std::move(value)]() mutable {
                deliverOne(at, std::move(v));
            }});
        _src.outboxGrew = true;
    }

    /**
     * Awaitable: dequeue the next value, blocking while none has been
     * delivered. A parked receiver resumes exactly at the value's
     * delivery instant.
     */
    auto
    recv()
    {
        struct Awaiter {
            CrossPort &port;
            std::optional<T> slot{};

            bool
            await_ready()
            {
                // Only values whose delivery instant has arrived are
                // visible; an early receiver must park until then.
                if (!port._pending.empty() &&
                    port._pending.front().at <= port._dst._sim.now()) {
                    slot.emplace(port._pending.popFront().value);
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                if (!port._pending.empty()) {
                    // Claim the front value now (preserving FIFO
                    // against later receivers) and sleep until its
                    // delivery instant.
                    Pending p = port._pending.popFront();
                    slot.emplace(std::move(p.value));
                    port._dst._sim.schedule(h, p.at);
                } else {
                    port._receivers.pushBack(RecvWaiter{h, &slot});
                }
            }

            T await_resume() { return std::move(*slot); }
        };
        return Awaiter{*this};
    }

    Duration latency() const { return _latency; }

  private:
    struct Pending {
        Time at;
        T value;
    };

    struct RecvWaiter {
        std::coroutine_handle<> handle;
        std::optional<T> *slot;
    };

    /** Coordinator-side delivery at the barrier. */
    void
    deliverOne(Time at, T value)
    {
        if (!_receivers.empty()) {
            RecvWaiter w = _receivers.popFront();
            w.slot->emplace(std::move(value));
            _dst._sim.schedule(w.handle, at);
        } else {
            _pending.pushBack(Pending{at, std::move(value)});
        }
    }

    Domain &_src;
    Domain &_dst;
    Duration _latency;

    /** Delivered values not yet consumed (dst side). */
    SmallRing<Pending, 8> _pending;

    /** Parked receivers (dst side). */
    SmallRing<RecvWaiter> _receivers;
};

} // namespace vhive::sim

#endif // VHIVE_SIM_PARALLEL_HH

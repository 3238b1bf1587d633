#include "mem/page_fetch.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vhive::mem {

sim::Task<void>
PageFetchPipeline::fetchContiguous(Bytes offset, Bytes len, Duration *out)
{
    ++_stats.contiguousFetches;
    _stats.bytesFetched += len;
    Time t0 = sim.now();
    co_await source.read(offset, len);
    snapshotTiers();
    if (out != nullptr)
        *out = sim.now() - t0;
}

/**
 * One hedged window's race. Held by shared_ptr so a hedge timer that
 * outlives the fetch (its race long since won) still has valid state
 * to check before it quietly expires.
 */
struct PageFetchPipeline::WindowRace
{
    explicit WindowRace(sim::Simulation &sim) : first(sim) {}

    sim::Gate first;
};

sim::Task<void>
PageFetchPipeline::fetchWindowed(Bytes offset, Bytes len,
                                 Bytes windowBytes, int inFlight,
                                 Duration *out)
{
    if (windowBytes < 0 || windowBytes >= len) {
        // One window covering the range is the contiguous shape.
        co_await fetchContiguous(offset, len, out);
        co_return;
    }
    if (windowBytes == 0) {
        // Adaptive mode: AIMD-size the windows from observed per-GET
        // behaviour instead of a caller-chosen constant.
        Time t0 = sim.now();
        co_await fetchAdaptive(offset, len, inFlight);
        snapshotTiers();
        if (out != nullptr)
            *out = sim.now() - t0;
        co_return;
    }
    ++_stats.windowedFetches;
    _stats.bytesFetched += len;
    std::int64_t windows = (len + windowBytes - 1) / windowBytes;
    _stats.windowsIssued += windows;

    Time t0 = sim.now();
    int workers = static_cast<int>(std::min<std::int64_t>(
        std::max(1, inFlight), windows));
    sim::Latch legs(sim, 0);
    sim::Latch done(sim, 0);
    for (int w = 0; w < workers; ++w)
        done.spawn(windowWorker(offset, len, windowBytes, w, workers,
                                &legs));
    co_await done.wait();
    // Workers proceed on each window's first leg; drain the losers
    // before returning so no leg outlives this frame (and with it the
    // pipeline, which legs dereference). Every race is won by now, so
    // sleeping hedge timers cannot add legs.
    co_await legs.wait();
    snapshotTiers();
    if (out != nullptr)
        *out = sim.now() - t0;
}

sim::Task<void>
PageFetchPipeline::windowWorker(Bytes offset, Bytes len,
                                Bytes windowBytes, std::int64_t begin,
                                std::int64_t stride, sim::Latch *legs)
{
    std::int64_t windows = (len + windowBytes - 1) / windowBytes;
    for (std::int64_t i = begin; i < windows; i += stride) {
        Bytes off = offset + i * windowBytes;
        Bytes n = std::min(windowBytes, offset + len - off);
        if (hedgeDelay > 0)
            co_await hedgedRead(off, n, legs);
        else
            co_await source.read(off, n);
    }
}

sim::Task<void>
PageFetchPipeline::hedgedRead(Bytes off, Bytes n, sim::Latch *legs)
{
    auto race = std::make_shared<WindowRace>(sim);
    legs->spawn(hedgeLeg(off, n, race, false));
    sim.spawn(hedgeTimer(off, n, race, legs));
    co_await race->first.wait();
}

sim::Task<void>
PageFetchPipeline::hedgeLeg(Bytes off, Bytes n,
                            std::shared_ptr<WindowRace> race,
                            bool hedge)
{
    co_await source.read(off, n);
    if (!race->first.isOpen()) {
        if (hedge)
            ++_stats.hedgeWins;
        race->first.openGate();
    }
}

sim::Task<void>
PageFetchPipeline::hedgeTimer(Bytes off, Bytes n,
                              std::shared_ptr<WindowRace> race,
                              sim::Latch *legs)
{
    co_await sim.delay(hedgeDelay);
    if (race->first.isOpen())
        co_return;
    // The primary leg is still in flight, which keeps the legs latch
    // and the pipeline alive: safe to issue the duplicate GET.
    ++_stats.hedgesIssued;
    _stats.hedgedBytes += n;
    legs->spawn(hedgeLeg(off, n, race, true));
}

/**
 * Shared AIMD controller of one adaptive fetch. Workers observe their
 * own GET (bytes, service time) pairs; two observations with distinct
 * sizes yield running rtt+overhead ("fixed") and bandwidth estimates,
 * from which the controller decides: grow additively while the fixed
 * cost still dominates, halve when a GET takes far longer than the
 * estimates predict (stream queueing behind the bounded link).
 */
struct PageFetchPipeline::AdaptiveState
{
    AdaptiveState(sim::Simulation &sim, const AdaptiveWindowParams &p,
                  int in_flight)
        : params(p), window(p.minWindow), slots(sim, in_flight)
    {
    }

    void
    observe(Bytes bytes, Duration t)
    {
        if (havePrev && bytes != prevBytes && t != prevTime) {
            double bw = static_cast<double>(bytes - prevBytes) /
                        static_cast<double>(t - prevTime);
            if (bw > 0) {
                bwEst = bw;
                fixedEst = std::max<Duration>(
                    0, t - static_cast<Duration>(
                           static_cast<double>(bytes) / bw));
            }
        }
        havePrev = true;
        prevBytes = bytes;
        prevTime = t;

        if (bwEst > 0) {
            Duration stream = static_cast<Duration>(
                static_cast<double>(bytes) / bwEst);
            Duration expected = fixedEst + stream;
            if (static_cast<double>(t) >
                params.congestionFactor *
                    static_cast<double>(expected)) {
                // Far beyond what the per-GET model predicts: the GET
                // queued for a stream slot. Back off.
                window = std::max<Bytes>(
                    params.minWindow,
                    static_cast<Bytes>(static_cast<double>(window) *
                                       params.decreaseFactor));
                return;
            }
            double stream_frac = static_cast<double>(stream) /
                                 static_cast<double>(t);
            if (stream_frac < params.efficiencyTarget)
                window = std::min(params.maxWindow,
                                  window + params.increment);
        } else {
            // No bandwidth estimate yet: probe upward so successive
            // GETs differ in size and the estimator can solve.
            window = std::min(params.maxWindow,
                              window + params.increment);
        }
    }

    const AdaptiveWindowParams &params;
    Bytes window;
    sim::Semaphore slots;
    std::int64_t windowsIssued = 0;

    bool havePrev = false;
    Bytes prevBytes = 0;
    Duration prevTime = 0;
    double bwEst = 0;       // bytes per nanosecond
    Duration fixedEst = 0;  // per-GET fixed cost estimate
};

sim::Task<void>
PageFetchPipeline::adaptiveWorker(Bytes offset, Bytes len,
                                  AdaptiveState *st)
{
    Time t0 = sim.now();
    co_await source.read(offset, len);
    st->observe(len, sim.now() - t0);
    st->slots.release();
}

sim::Task<void>
PageFetchPipeline::fetchAdaptive(Bytes offset, Bytes len, int inFlight)
{
    ++_stats.adaptiveFetches;
    _stats.bytesFetched += len;

    AdaptiveState st(sim, adaptive, std::max(1, inFlight));
    sim::Latch workers(sim, 0);
    Bytes cursor = offset;
    const Bytes end = offset + len;
    while (cursor < end) {
        co_await st.slots.acquire();
        Bytes n = std::min(st.window, end - cursor);
        ++st.windowsIssued;
        workers.spawn(adaptiveWorker(cursor, n, &st));
        cursor += n;
    }
    co_await workers.wait();
    _stats.windowsIssued += st.windowsIssued;
    _stats.convergedWindowBytes = st.window;
}

sim::Task<void>
PageFetchPipeline::fetchBackground(Bytes offset, Bytes len,
                                   Duration pace, Duration *out)
{
    ++_stats.backgroundFetches;
    _stats.bytesFetched += len;
    Time t0 = sim.now();
    // The adaptive controller sizes the windows, but the shape is the
    // opposite of fetchAdaptive: one GET in flight and a pacing pause
    // between windows, so a concurrent foreground fetch sees at most
    // one background GET ahead of it per stream.
    AdaptiveState st(sim, adaptive, 1);
    Bytes cursor = offset;
    const Bytes end = offset + len;
    while (cursor < end) {
        Bytes n = std::min(st.window, end - cursor);
        Time w0 = sim.now();
        co_await source.read(cursor, n);
        st.observe(n, sim.now() - w0);
        ++st.windowsIssued;
        cursor += n;
        if (pace > 0 && cursor < end)
            co_await sim.delay(pace);
    }
    _stats.windowsIssued += st.windowsIssued;
    _stats.convergedWindowBytes = st.window;
    snapshotTiers();
    if (out != nullptr)
        *out = sim.now() - t0;
}

sim::Task<void>
PageFetchPipeline::pageWorker(const std::vector<std::int64_t> &pages,
                              size_t begin, size_t stride,
                              UserFaultFd &uffd, GuestMemory &guest)
{
    for (size_t i = begin; i < pages.size(); i += stride) {
        co_await source.read(bytesForPages(pages[i]), kPageSize);
        co_await uffd.copyCost(1, 1);
        guest.installRange(pages[i], 1);
    }
}

sim::Task<void>
PageFetchPipeline::fetchAndInstallPages(
    const std::vector<std::int64_t> &pages, int workers,
    UserFaultFd &uffd, GuestMemory &guest)
{
    workers = std::max(1, workers);
    _stats.pageFetches += static_cast<std::int64_t>(pages.size());
    _stats.bytesFetched +=
        bytesForPages(static_cast<std::int64_t>(pages.size()));
    sim::Latch done(sim, 0);
    for (int w = 0; w < workers; ++w) {
        done.spawn(pageWorker(pages, static_cast<size_t>(w),
                              static_cast<size_t>(workers), uffd,
                              guest));
    }
    co_await done.wait();
    snapshotTiers();
}

} // namespace vhive::mem

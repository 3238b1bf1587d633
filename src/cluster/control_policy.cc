#include "cluster/control_policy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vhive::cluster {

namespace {

// Constants of the predictive policies (HybridHistogram, Oracle).

/** Pre-warm this far ahead of the predicted window start. */
constexpr Duration kPreWarmLead = sec(4);
/** Prefetch chunks when the window is within this horizon. */
constexpr Duration kPrefetchHorizon = sec(30);
/** Histogram needs this many gaps before it predicts. */
constexpr std::int64_t kMinSamples = 3;
/** OOB fallback when [p5,p99] spans more than this many buckets. */
constexpr int kSpreadLimit = 6;
/** OOB fallback: keep the function warm this long after use. */
constexpr Duration kFallbackKeepAlive = sec(120);
/** Hold scale-downs while cold p99 exceeds this (ms). */
constexpr double kScaleTargetP99Ms = 1000.0;

} // namespace

const char *
controlPolicyName(ControlPolicyKind kind)
{
    switch (kind) {
      case ControlPolicyKind::None:
        return "none";
      case ControlPolicyKind::NaiveKeepAlive:
        return "naive-keep-alive";
      case ControlPolicyKind::HybridHistogram:
        return "hybrid-histogram";
      case ControlPolicyKind::Oracle:
        return "oracle";
    }
    return "?";
}

// ---------------------------------------------------------------------
// InterarrivalHistogram

int
InterarrivalHistogram::bucketOf(Duration gap)
{
    // Bin b covers [b * kBinWidth, (b+1) * kBinWidth); gaps past an
    // hour clamp to the last bin.
    if (gap < 0)
        return 0;
    auto b = static_cast<int>(gap / kBinWidth);
    return std::min(b, kBuckets - 1);
}

Duration
InterarrivalHistogram::bucketLo(int b)
{
    return kBinWidth * b;
}

void
InterarrivalHistogram::note(Duration gap)
{
    ++counts[static_cast<std::size_t>(bucketOf(gap))];
    ++total;
}

Duration
InterarrivalHistogram::percentileGap(double p) const
{
    if (total == 0)
        return 0;
    p = std::clamp(p, 0.0, 100.0);
    // Smallest gap G such that at least p% of observed gaps are <= G,
    // interpolated linearly within the matching bucket.
    double target = p / 100.0 * static_cast<double>(total);
    std::int64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
        std::int64_t n = counts[static_cast<std::size_t>(b)];
        if (n == 0)
            continue;
        if (static_cast<double>(cum + n) >= target) {
            double frac =
                (target - static_cast<double>(cum)) /
                static_cast<double>(n);
            frac = std::clamp(frac, 0.0, 1.0);
            return bucketLo(b) +
                   static_cast<Duration>(
                       frac * static_cast<double>(kBinWidth));
        }
        cum += n;
    }
    return bucketLo(kBuckets);
}

bool
InterarrivalHistogram::outOfBounds(int spreadLimit) const
{
    if (total == 0)
        return true;
    return bucketOf(percentileGap(99.0)) -
               bucketOf(percentileGap(5.0)) >
           spreadLimit;
}

// ---------------------------------------------------------------------
// NaiveKeepAlivePolicy

void
NaiveKeepAlivePolicy::noteArrival(const std::string &fn, Time now)
{
    lastArrival[fn] = now;
}

void
NaiveKeepAlivePolicy::tick(const ControlTickContext &ctx,
                           std::vector<ControlAction> &out)
{
    // Always-warm: every function ever invoked keeps one instance hot
    // on its home worker, forever.
    for (const ControlFunctionView &v : ctx.functions) {
        if (!lastArrival.count(v.name))
            continue;
        if (v.idleInstances > 0 || v.warming)
            continue;
        ControlAction a;
        a.kind = ControlAction::Kind::PreWarm;
        a.function = v.name;
        a.worker = v.homeWorker;
        out.push_back(std::move(a));
    }
}

// ---------------------------------------------------------------------
// HybridHistogramPolicy

void
HybridHistogramPolicy::noteArrival(const std::string &fn, Time now)
{
    FnState &s = fns[fn];
    if (s.seen)
        s.hist.note(now - s.lastArrival);
    s.lastArrival = now;
    s.seen = true;
}

void
HybridHistogramPolicy::tick(const ControlTickContext &ctx,
                            std::vector<ControlAction> &out)
{
    for (const ControlFunctionView &v : ctx.functions) {
        auto it = fns.find(v.name);
        if (it == fns.end() || !it->second.seen)
            continue;
        FnState &s = it->second;
        if (v.idleInstances > 0 || v.warming)
            continue;

        if (s.hist.count() < kMinSamples ||
            s.hist.outOfBounds(kSpreadLimit)) {
            // Out-of-bounds fallback: too little or too scattered a
            // history to predict from — plain bounded keep-alive.
            if (ctx.now - s.lastArrival <= kFallbackKeepAlive) {
                ControlAction a;
                a.kind = ControlAction::Kind::PreWarm;
                a.function = v.name;
                a.worker = v.homeWorker;
                out.push_back(std::move(a));
            }
            continue;
        }

        // Predicted next-invocation window from the gap histogram.
        Time wStart = s.lastArrival + s.hist.percentileGap(5.0);
        Time wEnd = s.lastArrival + s.hist.percentileGap(99.0);
        if (ctx.now > wEnd)
            continue; // prediction missed; wait for the next arrival
        if (wStart - ctx.now <= kPreWarmLead) {
            ControlAction a;
            a.kind = ControlAction::Kind::PreWarm;
            a.function = v.name;
            a.worker = v.homeWorker;
            out.push_back(std::move(a));
        } else if (wStart - ctx.now <= kPrefetchHorizon &&
                   v.homeChunkResidency < 1.0 &&
                   s.prefetchedFor != wStart) {
            s.prefetchedFor = wStart;
            ControlAction a;
            a.kind = ControlAction::Kind::Prefetch;
            a.function = v.name;
            a.worker = v.homeWorker;
            a.until = wEnd;
            out.push_back(std::move(a));
        }
    }

    // p99-driven scale hint: while cold latency is over target and
    // colds are still landing, hold the janitor's scale-downs.
    std::int64_t delta = ctx.coldStarts - lastColdStarts;
    lastColdStarts = ctx.coldStarts;
    if (delta > 0 && ctx.coldP99Ms > kScaleTargetP99Ms) {
        ControlAction a;
        a.kind = ControlAction::Kind::ScaleHint;
        a.hint = 1;
        out.push_back(std::move(a));
    }
}

// ---------------------------------------------------------------------
// OraclePolicy

void
OraclePolicy::setSchedule(const std::string &fn,
                          std::vector<Duration> offsets)
{
    std::sort(offsets.begin(), offsets.end());
    fns[fn] = FnSchedule{std::move(offsets), 0, -1};
}

void
OraclePolicy::setEpoch(Time t)
{
    epoch = t;
}

void
OraclePolicy::tick(const ControlTickContext &ctx,
                   std::vector<ControlAction> &out)
{
    for (const ControlFunctionView &v : ctx.functions) {
        auto it = fns.find(v.name);
        if (it == fns.end())
            continue;
        FnSchedule &s = it->second;
        while (s.cursor < s.offsets.size() &&
               epoch + s.offsets[s.cursor] < ctx.now)
            ++s.cursor;
        if (s.cursor >= s.offsets.size())
            continue;
        if (v.idleInstances > 0 || v.warming)
            continue;
        Time next = epoch + s.offsets[s.cursor];
        if (next - ctx.now <= kPreWarmLead) {
            ControlAction a;
            a.kind = ControlAction::Kind::PreWarm;
            a.function = v.name;
            a.worker = v.homeWorker;
            out.push_back(std::move(a));
        } else if (next - ctx.now <= kPrefetchHorizon &&
                   v.homeChunkResidency < 1.0 &&
                   s.prefetchedFor != next) {
            s.prefetchedFor = next;
            ControlAction a;
            a.kind = ControlAction::Kind::Prefetch;
            a.function = v.name;
            a.worker = v.homeWorker;
            a.until = next;
            out.push_back(std::move(a));
        }
    }
}

// ---------------------------------------------------------------------
// ControlPolicyRegistry

ControlPolicyRegistry::ControlPolicyRegistry()
{
    registerPolicy(ControlPolicyKind::None,
                   std::make_unique<NoControlPolicy>());
    registerPolicy(ControlPolicyKind::NaiveKeepAlive,
                   std::make_unique<NaiveKeepAlivePolicy>());
    registerPolicy(ControlPolicyKind::HybridHistogram,
                   std::make_unique<HybridHistogramPolicy>());
    registerPolicy(ControlPolicyKind::Oracle,
                   std::make_unique<OraclePolicy>());
}

ControlPolicy &
ControlPolicyRegistry::policyFor(ControlPolicyKind kind) const
{
    ControlPolicy *p = find(kind);
    if (p == nullptr)
        fatal("no ControlPolicy registered for kind %d",
              static_cast<int>(kind));
    return *p;
}

ControlPolicy *
ControlPolicyRegistry::find(ControlPolicyKind kind) const
{
    auto it = policies.find(kind);
    return it == policies.end() ? nullptr : it->second.get();
}

void
ControlPolicyRegistry::registerPolicy(
    ControlPolicyKind kind, std::unique_ptr<ControlPolicy> policy)
{
    VHIVE_ASSERT(policy != nullptr);
    policies[kind] = std::move(policy);
}

} // namespace vhive::cluster

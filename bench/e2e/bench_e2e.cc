/**
 * @file
 * End-to-end benchmark workloads. One process runs one named workload
 * on a fixed number of sub-seeds, after the Fig. 8 fidelity prelude,
 * and writes one JSON object: the simulated end-to-end results
 * (deterministic per seed), the host cost of producing them, per-layer
 * counters, a digest of the simulated state and the correctness
 * checks. bench/e2e/run.py drives it and prints the metrics;
 * bench/e2e/README.md defines every number.
 *
 * Usage:
 *   bench_e2e --workload NAME [--seed S] [--sim-threads N]
 *             [--json PATH] [--trace PATH]
 *
 * Seed S simulates the workload under sub-seeds S*kSubSeeds ..
 * S*kSubSeeds + kSubSeeds-1 and pools their samples. Sub-seed 0 keeps
 * the library's default WorkerConfig/TrafficConfig seeds; any other
 * sub-seed replaces both. --trace records spans in memory and writes
 * them at exit as Chrome trace-event JSON (open in Perfetto):
 * host-clock spans for set-up, run and each wave, and on
 * host-reap-burst one simulated-clock span tree per invocation.
 * Everything here goes through the library's public API; no span is
 * recorded inside the library.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "bench/common.hh"
#include "cluster/parallel_fleet.hh"
#include "cluster/traffic.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "sim/sync.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

/**
 * Independent draws of the workload one run simulates. Pooling them
 * gives the fleets enough cold starts for a p99 with ten samples
 * beyond it, and averages out which functions a single draw makes hot.
 */
constexpr int kSubSeeds = 6;

// ------------------------------------------------------------- clocks

using HostClock = std::chrono::steady_clock;

const HostClock::time_point kProcessStart = HostClock::now();

/** Host seconds since process start. */
double
hostSeconds()
{
    return std::chrono::duration<double>(HostClock::now() -
                                         kProcessStart)
        .count();
}

// ------------------------------------------------------------ tracing

/**
 * Trace-event process ids: host clock, then one simulated clock per
 * sub-seed (each sub-seed's simulation starts at time 0).
 */
constexpr int kHostPid = 1;
constexpr int kSimPid = 2;

/**
 * In-memory span recorder, written once at exit as Chrome trace-event
 * JSON. Every span has an id, the id of the span that caused it (0 for
 * a root) and the id of the request it belongs to. When off, open()
 * and add() record nothing.
 */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        int pid = kHostPid;
        std::int64_t tid = 0;
        double tsUs = 0;
        double durUs = 0;
        std::int64_t req = 0;
        std::int64_t parent = 0;
    };

    explicit SpanLog(bool on) : on(on) {}

    bool enabled() const { return on; }

    /** Record a finished span; returns its id (0 when off). */
    std::int64_t
    add(Span s)
    {
        if (!on)
            return 0;
        spans.push_back(std::move(s));
        return static_cast<std::int64_t>(spans.size());
    }

    /**
     * Start a host-clock span now, as a child of the innermost open
     * one; close() it with the returned id. Host spans nest.
     */
    std::int64_t
    open(const std::string &name)
    {
        Span s;
        s.name = name;
        s.tsUs = hostSeconds() * 1e6;
        s.parent = openSpans.empty() ? 0 : openSpans.back();
        std::int64_t id = add(std::move(s));
        if (id != 0)
            openSpans.push_back(id);
        return id;
    }

    void
    close(std::int64_t id)
    {
        if (id == 0)
            return;
        Span &s = spans[static_cast<std::size_t>(id - 1)];
        s.durUs = hostSeconds() * 1e6 - s.tsUs;
        openSpans.pop_back();
    }

    /** Write every span as a Chrome trace-event document. */
    bool
    write(const std::string &path,
          const std::vector<std::uint64_t> &sub_seeds) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f,
                     "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
                     "{\"ph\": \"M\", \"name\": \"process_name\", "
                     "\"pid\": %d, \"args\": {\"name\": \"host clock\"}}",
                     kHostPid);
        for (std::size_t i = 0; i < sub_seeds.size(); ++i)
            std::fprintf(f,
                         ",\n{\"ph\": \"M\", \"name\": \"process_name\", "
                         "\"pid\": %zu, \"args\": {\"name\": \"simulated "
                         "clock, seed %llu\"}}",
                         kSimPid + i,
                         static_cast<unsigned long long>(sub_seeds[i]));
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f,
                         ",\n{\"ph\": \"X\", \"name\": \"%s\", "
                         "\"pid\": %d, \"tid\": %lld, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"span\": %zu, "
                         "\"parent\": %lld, \"req\": %lld}}",
                         s.name.c_str(), s.pid,
                         static_cast<long long>(s.tid), s.tsUs, s.durUs,
                         i + 1, static_cast<long long>(s.parent),
                         static_cast<long long>(s.req));
        }
        std::fputs("\n]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    bool on;
    std::vector<Span> spans;
    std::vector<std::int64_t> openSpans;
};

/** Scoped host-clock span. */
class HostSpan
{
  public:
    HostSpan(SpanLog &log, const std::string &name)
        : log(log), _id(log.open(name))
    {
    }
    ~HostSpan() { log.close(_id); }

    HostSpan(const HostSpan &) = delete;
    HostSpan &operator=(const HostSpan &) = delete;

  private:
    SpanLog &log;
    std::int64_t _id;
};

// ------------------------------------------------------------- result

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/** FNV-1a accumulation of one 64-bit quantity. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
    }
}

/** Correctness checks: name -> (passed, detail). */
struct Checks
{
    std::vector<std::tuple<std::string, bool, std::string>> list;

    void
    add(const std::string &name, bool ok, const std::string &detail)
    {
        list.emplace_back(name, ok, detail);
    }

    bool
    allPassed() const
    {
        return std::all_of(list.begin(), list.end(),
                           [](const auto &c) { return std::get<1>(c); });
    }

    /**
     * Percentile @p p of @p s, checked to have at least ten samples
     * beyond it — a tail estimated from fewer is not reported.
     */
    double
    tail(const std::string &name, const Samples &s, double p)
    {
        double beyond =
            static_cast<double>(s.count()) * (100.0 - p) / 100.0;
        add(name + "_has_10_beyond", beyond >= 10,
            std::to_string(s.count()) + " samples");
        return s.percentile(p);
    }
};

/** What one sub-seed of a workload produced. */
struct Part
{
    std::uint64_t digest = 0;
    std::int64_t attempted = 0;
    std::int64_t completed = 0;
    std::int64_t colds = 0;
    Samples coldMs;     ///< cold-start latencies
    Samples e2eMs;      ///< every invocation's latency
    Bytes artifactBytes = 0;

    /** Modelled worker cache memory; absent where no cache is used. */
    std::optional<double> cachePeakMiB;

    double setupS = 0;
    double runS = 0;

    /** Per-layer metrics (bench/e2e/README.md lists them by layer). */
    std::map<std::string, double> layers;
};

/** Everything one process reports: the pooled sub-seeds. */
struct Result
{
    std::string workload;
    std::uint64_t seed = 0;
    std::vector<std::uint64_t> subSeeds;
    std::uint64_t digest = kFnvOffset;
    std::int64_t attempted = 0;
    std::int64_t completed = 0;

    /** Simulated end-to-end metrics. */
    std::map<std::string, double> sim;

    /** Per-layer metrics: means over the sub-seeds. */
    std::map<std::string, double> layers;

    /** Host cost. */
    double setupS = 0;
    double wallS = 0;

    Checks checks;
};

/**
 * Peak resident set of this process image, in MiB. VmHWM, not
 * getrusage's ru_maxrss: the latter keeps the high-water mark of the
 * process before exec, i.e. of the parent that spawned the benchmark.
 */
double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    long long kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

bool
writeResult(const Result &r, const std::string &path)
{
    std::FILE *f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    auto numbers = [f](const std::map<std::string, double> &m) {
        bool first = true;
        for (const auto &[k, v] : m) {
            std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ",
                         k.c_str(), std::isfinite(v) ? v : 0.0);
            first = false;
        }
    };
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, "
                 "\"sub_seeds\": [",
                 r.workload.c_str(),
                 static_cast<unsigned long long>(r.seed));
    for (std::size_t i = 0; i < r.subSeeds.size(); ++i)
        std::fprintf(f, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(r.subSeeds[i]));
    std::fprintf(f,
                 "], \"digest\": \"%016llx\", \"attempted\": %lld, "
                 "\"completed\": %lld, \"setup_s\": %.9f, "
                 "\"wall_s\": %.9f, \"peak_rss_mib\": %.6f,\n \"sim\": {",
                 static_cast<unsigned long long>(r.digest),
                 static_cast<long long>(r.attempted),
                 static_cast<long long>(r.completed), r.setupS, r.wallS,
                 peakRssMiB());
    numbers(r.sim);
    std::fputs("},\n \"layers\": {", f);
    numbers(r.layers);
    std::fputs("},\n \"checks\": [", f);
    for (std::size_t i = 0; i < r.checks.list.size(); ++i) {
        const auto &[name, ok, detail] = r.checks.list[i];
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"ok\": %s, "
                     "\"detail\": \"%s\"}",
                     i ? "," : "", name.c_str(), ok ? "true" : "false",
                     detail.c_str());
    }
    std::fputs("]}\n", f);
    return f == stdout || std::fclose(f) == 0;
}

// -------------------------------------------------------- fig8 prelude

/**
 * Fig. 8 at concurrency 1: baseline-snapshot and REAP cold starts of
 * the ten FunctionBench functions, mean of five flushed cold starts
 * each (bench_fig8_reap_functionbench's method), against the paper's
 * numbers in bench/common.hh. Adds the relative error of each of the
 * 20 (function, mode) cells to @p err.
 */
void
runFig8(std::uint64_t seed, Samples &err)
{
    for (const auto &profile : func::functionBench()) {
        sim::Simulation sim;
        core::WorkerConfig wc;
        if (seed != 0)
            wc.seed = seed;
        core::Worker w(sim, wc);
        Samples base, reap;
        bench::runScenario(sim, [&]() -> sim::Task<void> {
            auto &orch = w.orchestrator();
            orch.registerFunction(profile);
            co_await orch.prepareSnapshot(profile.name);
            orch.flushHostCaches();
            (void)co_await orch.invoke(profile.name,
                                       core::ColdStartMode::Reap);
            for (int i = 0; i < 5; ++i) {
                core::InvokeOptions opts;
                opts.flushPageCache = true;
                opts.forceCold = true;
                auto b = co_await orch.invoke(
                    profile.name, core::ColdStartMode::VanillaSnapshot,
                    opts);
                base.add(toMs(b.total));
                auto rp = co_await orch.invoke(
                    profile.name, core::ColdStartMode::Reap, opts);
                reap.add(toMs(rp.total));
            }
        });
        const auto &ref = bench::paperRef(profile.name);
        err.add(std::abs(base.mean() - ref.coldMs) / ref.coldMs);
        err.add(std::abs(reap.mean() - ref.reapMs) / ref.reapMs);
    }
}

// ----------------------------------------------------- host-reap-burst

/**
 * FunctionBench functions 0-7: lr_training and video_processing, whose
 * seconds-long runs would dominate every wave, are left out.
 */
constexpr int kBurstBaseFunctions = 8;

/** Replicas of each: 32 functions, one cold start each per wave. */
constexpr int kBurstReplicas = 4;

/** Closed-loop waves per sub-seed. */
constexpr int kBurstWaves = 50;

/** One finished cold start of the burst. */
struct ColdSample
{
    core::LatencyBreakdown bd;
    Time due = 0;
    int slot = 0;
};

sim::Task<void>
burstInvoke(core::Orchestrator &orch, std::string name, Time due,
            int slot, std::vector<ColdSample> *out, sim::Latch *done)
{
    core::InvokeOptions opts;
    opts.forceCold = true;
    ColdSample c;
    c.bd = co_await orch.invoke(name, core::ColdStartMode::Reap, opts);
    c.due = due;
    c.slot = slot;
    out->push_back(std::move(c));
    done->arrive();
}

/**
 * Simulated-clock span tree of one cold start: the invocation, then
 * its LatencyBreakdown segments in Fig. 7 order laid end to end from
 * the due time, with the part of the total no segment reports as
 * `unattributed` (placed after the WS install, where the loader
 * resumes the vCPUs without reporting it).
 */
void
traceCold(SpanLog &log, int pid, const ColdSample &c, std::int64_t req,
          const std::string &fn)
{
    const core::LatencyBreakdown &bd = c.bd;
    SpanLog::Span root;
    root.name = "invoke " + fn;
    root.pid = pid;
    root.tid = c.slot;
    root.tsUs = toUs(c.due);
    root.durUs = toUs(bd.total);
    root.req = req;
    std::int64_t parent = log.add(root);

    Duration attributed = bd.loadVmm + bd.fetchWs + bd.installWs +
                          bd.connRestore + bd.processing;
    const std::pair<const char *, Duration> segments[] = {
        {"vmm.restore", bd.loadVmm},
        {"mem.fetch_ws", bd.fetchWs},
        {"mem.install_ws", bd.installWs},
        {"unattributed", bd.total - attributed},
        {"vmm.conn_restore", bd.connRestore},
        {"func.processing", bd.processing},
    };
    Time at = c.due;
    for (const auto &[name, d] : segments) {
        SpanLog::Span s;
        s.name = name;
        s.pid = pid;
        s.tid = c.slot;
        s.tsUs = toUs(at);
        s.durUs = toUs(d);
        s.req = req;
        s.parent = parent;
        log.add(s);
        at += d;
    }
}

/**
 * The paper's disk-bound Fig. 9 regime on one worker host: 32
 * pre-recorded functions, closed-loop waves of 32 concurrent
 * forceCold REAP invocations, host caches flushed before each wave.
 */
Part
runHostReapBurst(std::uint64_t seed, int sub, SpanLog &log,
                 Checks &checks)
{
    Part p;
    double h0 = hostSeconds();
    std::int64_t setupSpan = log.open("setup");

    sim::Simulation sim;
    core::WorkerConfig wc;
    if (seed != 0)
        wc.seed = seed;
    core::Worker w(sim, wc);
    auto &orch = w.orchestrator();
    std::vector<std::string> names;
    for (int rep = 0; rep < kBurstReplicas; ++rep) {
        for (int i = 0; i < kBurstBaseFunctions; ++i) {
            func::FunctionProfile fp =
                func::functionBench()[static_cast<std::size_t>(i)];
            fp.name += "_r" + std::to_string(rep);
            orch.registerFunction(fp);
            names.push_back(fp.name);
        }
    }
    double rec0 = hostSeconds();
    bench::runScenario(sim, [&]() -> sim::Task<void> {
        for (const auto &n : names) {
            co_await orch.prepareSnapshot(n);
            orch.flushHostCaches();
            (void)co_await orch.invoke(n, core::ColdStartMode::Reap);
        }
    });
    p.layers["core.record_host_ms"] = (hostSeconds() - rec0) * 1e3;
    w.disk().resetStats();
    w.fileStore().resetStats();
    std::int64_t setupEvents = sim.eventsProcessed();
    log.close(setupSpan);
    p.setupS = hostSeconds() - h0;

    double run0 = hostSeconds();
    std::vector<ColdSample> colds;
    colds.reserve(static_cast<std::size_t>(kBurstWaves) * names.size());
    std::int64_t spawned = 0;
    {
        HostSpan run(log, "run");
        bench::runScenario(sim, [&]() -> sim::Task<void> {
            for (int wave = 0; wave < kBurstWaves; ++wave) {
                HostSpan ws(log, "wave " + std::to_string(wave));
                orch.flushHostCaches();
                sim::Latch done(sim,
                                static_cast<std::int64_t>(names.size()));
                for (std::size_t i = 0; i < names.size(); ++i) {
                    sim.spawn(burstInvoke(orch, names[i], sim.now(),
                                          static_cast<int>(i), &colds,
                                          &done));
                    ++spawned;
                }
                co_await done.wait();
            }
        });
    }
    p.runS = hostSeconds() - run0;

    // Segment samples and the digest, in completion order.
    Samples restore, conn, fetch, install, proc, unattributed;
    double residual = 0, prefetched = 0, wasted = 0;
    std::uint64_t h = kFnvOffset;
    std::int64_t req = 0;
    for (const ColdSample &c : colds) {
        const core::LatencyBreakdown &bd = c.bd;
        p.e2eMs.add(toMs(bd.total));
        restore.add(toMs(bd.loadVmm));
        conn.add(toMs(bd.connRestore));
        fetch.add(toMs(bd.fetchWs));
        install.add(toMs(bd.installWs));
        proc.add(toMs(bd.processing));
        unattributed.add(toMs(bd.total - bd.loadVmm - bd.fetchWs -
                              bd.installWs - bd.connRestore -
                              bd.processing));
        residual += static_cast<double>(bd.residualFaults);
        prefetched += static_cast<double>(bd.prefetchedPages);
        wasted += static_cast<double>(bd.wastedPrefetch);
        for (Duration d : {bd.total, bd.loadVmm, bd.connRestore,
                           bd.processing, bd.fetchWs, bd.installWs, c.due})
            fnvMix(h, static_cast<std::uint64_t>(d));
        for (std::int64_t n : {bd.majorFaults, bd.residualFaults,
                               bd.prefetchedPages, bd.wastedPrefetch})
            fnvMix(h, static_cast<std::uint64_t>(n));
        fnvMix(h, static_cast<std::uint64_t>(c.slot));
        if (bd.cold && !bd.crashed) {
            p.coldMs.add(toMs(bd.total));
            ++p.colds;
        }
        if (log.enabled())
            traceCold(log, kSimPid + sub, c, ++req,
                      names[static_cast<std::size_t>(c.slot)]);
    }
    p.digest = h;
    auto n = static_cast<std::int64_t>(colds.size());
    p.attempted = spawned;
    p.completed = n;
    std::string tag = "seed_" + std::to_string(seed) + "_";
    checks.add(tag + "spawned_equals_returned", spawned == n,
               std::to_string(spawned) + " spawned, " + std::to_string(n) +
                   " returned");
    checks.add(tag + "every_invocation_cold", p.colds == n,
               std::to_string(p.colds) + " of " + std::to_string(n));

    const storage::DiskStats &disk = w.disk().stats();
    const storage::FileStoreStats &fs = w.fileStore().stats();
    p.artifactBytes = disk.bytesRead;

    double dn = static_cast<double>(std::max<std::int64_t>(n, 1));
    std::int64_t events = sim.eventsProcessed() - setupEvents;
    p.layers["sim.events"] = static_cast<double>(events);
    p.layers["sim.host_ns_per_event"] =
        p.runS * 1e9 /
        static_cast<double>(std::max<std::int64_t>(events, 1));
    p.layers["vmm.restore_ms_p50"] = restore.percentile(50);
    p.layers["vmm.conn_restore_ms_p50"] = conn.percentile(50);
    p.layers["mem.fetch_ws_ms_p50"] = fetch.percentile(50);
    p.layers["mem.fetch_ws_ms_p99"] =
        checks.tail(tag + "fetch_ws_p99", fetch, 99);
    p.layers["mem.install_ws_ms_p50"] = install.percentile(50);
    p.layers["mem.residual_faults_per_cold"] = residual / dn;
    p.layers["mem.prefetched_pages_per_cold"] = prefetched / dn;
    p.layers["mem.wasted_prefetch_ratio"] =
        prefetched > 0 ? wasted / prefetched : 0;
    p.layers["func.processing_ms_p50"] = proc.percentile(50);
    p.layers["core.unattributed_ms_p50"] = unattributed.percentile(50);
    p.layers["storage.disk_mib_read"] = toMiB(disk.bytesRead);
    p.layers["storage.disk_requests"] = static_cast<double>(disk.requests);
    double lookups = static_cast<double>(fs.cacheHits + fs.cacheMisses);
    p.layers["storage.page_cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(fs.cacheHits) / lookups : 0;
    return p;
}

// ---------------------------------------------------------- fleet runs

/** Zipf population with the TrafficEngine's defaults otherwise. */
cluster::TrafficConfig
zipfPopulation(int functions, double rps, Duration horizon)
{
    cluster::TrafficConfig tc;
    tc.functions = functions;
    tc.aggregateRps = rps;
    tc.horizon = horizon;
    return tc;
}

/**
 * Keep-alive of every fleet: longer than any run, so instances never
 * expire and every cold start is a function's first use on a worker or
 * a concurrency overflow. A keep-alive scale-down that races a warm
 * dispatch to the same instance frees it mid-serve
 * (Orchestrator::stopInstance erases the instance after its monitor
 * handshake although a warm invoke() may have claimed it meanwhile);
 * with expiring instances one seed in 30 to 80 crashed.
 */
constexpr Duration kNoScaleDown = sec(3600);

/**
 * fleet-tiered-t2: the only multi-threaded workload. Blob TieredReap
 * staging on one store shard, warm-first routing, smooth Zipf traffic.
 * Two sim threads, not four: every window ends in a barrier, so with a
 * thread per core one core taken by another process stalls them all
 * (one busy core slowed this workload 21% at 4 threads, 3% at 2).
 */
cluster::ParallelFleetConfig
fleetTieredT2()
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 32;
    cfg.simThreads = 2;
    cfg.coldStartMode = core::ColdStartMode::TieredReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 1;
    cfg.routingPolicy = cluster::RoutingPolicyKind::WarmFirst;
    cfg.keepAlive = kNoScaleDown;
    cfg.traffic = zipfPopulation(256, 24.0, sec(48));
    return cfg;
}

/**
 * fleet-dedup-burst: chunked transfer under burst contention — DedupReap
 * staging over four overlap-aware shards, a 256-function population
 * with a diurnal swing, a tenant flash crowd and a deploy storm.
 */
cluster::ParallelFleetConfig
fleetDedupBurst()
{
    cluster::ParallelFleetConfig cfg;
    cfg.workers = 16;
    cfg.simThreads = 1;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.sharedStoreShards = 4;
    cfg.chunkPlacement = net::ChunkPlacementPolicy::OverlapAware;
    cfg.routingPolicy = cluster::RoutingPolicyKind::WarmFirst;
    cfg.keepAlive = kNoScaleDown;
    cluster::TrafficConfig tc = zipfPopulation(256, 24.0, sec(54));
    // Under the default 1.1 skew the hottest function carries a fifth
    // of the traffic, so whether the seed puts it in the crowd's tenant
    // decides the whole run; a mild skew keeps every seed alike.
    tc.zipfExponent = 0.3;
    tc.diurnal.period = tc.horizon;
    tc.diurnal.amplitude = 0.4;
    cluster::BurstSpec crowd;
    crowd.kind = cluster::BurstKind::FlashCrowd;
    crowd.tenant = 1;
    crowd.start = sec(12);
    crowd.duration = sec(9);
    crowd.multiplier = 12.0;
    tc.bursts.push_back(crowd);
    cluster::BurstSpec storm;
    storm.kind = cluster::BurstKind::DeployStorm;
    storm.start = sec(36);
    storm.duration = sec(9);
    storm.multiplier = 6.0;
    storm.fraction = 0.25;
    tc.bursts.push_back(storm);
    cfg.traffic = tc;
    return cfg;
}

/** Arrivals the fleet should have dispatched, replayed independently. */
std::int64_t
replayArrivals(const cluster::TrafficConfig &tc)
{
    cluster::TrafficEngine eng(tc);
    std::int64_t n = 0;
    for (int fn = 0; fn < eng.functionCount(); ++fn) {
        Rng local(tc.seed, "traffic-arrivals/" + eng.profile(fn).name);
        for (Duration t = eng.nextArrival(fn, 0, local);
             t < tc.horizon; t = eng.nextArrival(fn, t, local))
            ++n;
    }
    return n;
}

/**
 * Fleet constructions per sub-seed. Constructing the fleet is its
 * whole host set-up (staging runs in simulated time inside run()) and
 * takes well under a millisecond, so it is repeated and the median
 * kept; the last fleet is the one run.
 */
constexpr int kFleetSetups = 5;

Part
runFleet(cluster::ParallelFleetConfig cfg, std::uint64_t seed,
         int sim_threads, SpanLog &log, Checks &checks)
{
    if (seed != 0) {
        cfg.worker.seed = seed;
        cfg.traffic->seed = seed;
    }
    if (sim_threads > 0)
        cfg.simThreads = sim_threads;

    Part p;
    p.attempted = replayArrivals(*cfg.traffic);

    Samples setups;
    std::optional<cluster::ParallelFleet> fleet;
    for (int i = 0; i < kFleetSetups; ++i) {
        fleet.reset();
        HostSpan s(log, "setup");
        double h0 = hostSeconds();
        fleet.emplace(cfg);
        setups.add(hostSeconds() - h0);
    }
    p.setupS = setups.percentile(50);
    double h1 = hostSeconds();
    cluster::ParallelFleetResult f;
    {
        HostSpan s(log, "run");
        f = fleet->run();
    }
    p.runS = hostSeconds() - h1;
    p.digest = f.digest();
    p.completed = f.invocations;
    p.colds = f.coldStarts;
    for (double v : f.coldE2eMs.values())
        p.coldMs.add(v);
    for (double v : f.e2eLatencyMs.values())
        p.e2eMs.add(v);
    p.artifactBytes = f.store.bytesServed;
    p.cachePeakMiB =
        toMiB(f.pageCachePeakBytes) + toMiB(f.workerChunkPeakBytes);

    std::string tag = "seed_" + std::to_string(seed) + "_";
    checks.add(tag + "replayed_arrivals_equal_invocations",
               p.attempted == f.invocations,
               std::to_string(p.attempted) + " replayed, " +
                   std::to_string(f.invocations) + " invocations");
    checks.add(tag + "cold_plus_warm_equals_invocations",
               f.coldStarts + f.warmHits == f.invocations,
               std::to_string(f.coldStarts) + " + " +
                   std::to_string(f.warmHits) + " vs " +
                   std::to_string(f.invocations));

    double inv =
        static_cast<double>(std::max<std::int64_t>(f.invocations, 1));
    const auto &ks = fleet->kernelStats();
    p.layers["sim.events"] = static_cast<double>(f.eventsProcessed);
    p.layers["sim.host_ns_per_event"] =
        p.runS * 1e9 /
        static_cast<double>(std::max<std::int64_t>(f.eventsProcessed, 1));
    p.layers["sim.windows"] = static_cast<double>(ks.windows);
    p.layers["sim.solo_windows"] = static_cast<double>(ks.soloWindows);
    p.layers["sim.multi_domain_windows"] =
        static_cast<double>(ks.multiDomainWindows);
    p.layers["sim.messages"] = static_cast<double>(ks.messages);
    p.layers["sim.events_per_window"] =
        static_cast<double>(f.eventsProcessed) /
        static_cast<double>(std::max<std::int64_t>(ks.windows, 1));

    p.layers["mem.page_cache_peak_mib"] = toMiB(f.pageCachePeakBytes);
    p.layers["mem.chunk_cache_peak_mib"] = toMiB(f.workerChunkPeakBytes);
    p.layers["mem.page_cache_evicted_mib"] =
        toMiB(f.pageCacheEvictedBytes);
    p.layers["mem.chunk_budget_evictions"] =
        static_cast<double>(f.workerChunkBudgetEvictions);

    double uploaded = static_cast<double>(f.stagedBytes);
    double saved = static_cast<double>(f.dedupSavedBytes);
    p.layers["storage.staged_mib"] = toMiB(f.stagedBytes);
    p.layers["storage.dedup_ratio"] =
        uploaded + saved > 0 ? saved / (uploaded + saved) : 0;
    p.layers["storage.chunks_uploaded"] =
        static_cast<double>(f.chunksUploaded);
    p.layers["storage.chunks_deduped"] =
        static_cast<double>(f.chunksDeduped);
    p.layers["storage.ssd_evictions"] = static_cast<double>(f.ssdEvictions);
    p.layers["storage.fleet_chunk_peak_mib"] =
        toMiB(f.fleetChunkPeakBytes);

    const net::ObjectStoreStats &st = f.store;
    p.layers["net.gets"] = static_cast<double>(st.gets);
    p.layers["net.ranged_gets"] = static_cast<double>(st.rangedGets);
    p.layers["net.chunk_batches"] = static_cast<double>(st.chunkBatches);
    p.layers["net.mib_served"] = toMiB(st.bytesServed);
    p.layers["net.stream_waits"] = static_cast<double>(st.streamWaits);
    p.layers["net.stream_wait_ms"] = toMs(st.streamWaitTime);
    p.layers["net.peak_stream_queue"] =
        static_cast<double>(st.peakStreamQueue);
    p.layers["net.request_retries"] =
        static_cast<double>(st.requestRetries);
    double maxShard = 0, sumShard = 0;
    for (const net::ObjectStoreStats &s : f.storeShards) {
        maxShard = std::max(maxShard, static_cast<double>(s.bytesServed));
        sumShard += static_cast<double>(s.bytesServed);
    }
    p.layers["net.shard_max_over_mean"] =
        sumShard > 0 ? maxShard * static_cast<double>(f.storeShards.size()) /
                           sumShard
                     : 0;

    p.layers["cluster.warm_hit_ratio"] =
        static_cast<double>(f.warmHits) / inv;
    p.layers["cluster.remote_fetches"] =
        static_cast<double>(f.remoteArtifactFetches);
    p.layers["cluster.snapshot_builds"] =
        static_cast<double>(f.snapshotBuilds);
    p.layers["cluster.scale_downs"] = static_cast<double>(f.scaleDowns);
    p.layers["cluster.pre_warms"] = static_cast<double>(f.preWarms);
    p.layers["cluster.pre_warm_hit_ratio"] =
        f.preWarms > 0 ? static_cast<double>(f.preWarmHits) /
                             static_cast<double>(f.preWarms)
                       : 0;
    p.layers["cluster.bg_prefetches"] = static_cast<double>(f.bgPrefetches);
    return p;
}

// ----------------------------------------------------------- pooling

/**
 * Run the Fig. 8 prelude and every sub-seed of one workload, and pool
 * them: latency percentiles over all sub-seeds' samples, ratios over
 * summed counts, per-layer metrics as means, host set-up as the median
 * sub-seed's and wall time as the sum.
 */
template <typename RunPart>
Result
runWorkload(std::uint64_t seed, SpanLog &log, RunPart run_part)
{
    Result r;
    r.seed = seed;
    Samples fig8Err;
    for (int i = 0; i < kSubSeeds; ++i) {
        r.subSeeds.push_back(seed * kSubSeeds +
                             static_cast<std::uint64_t>(i));
        runFig8(r.subSeeds.back(), fig8Err);
    }

    Samples coldMs, e2eMs, setups, cachePeak;
    std::int64_t colds = 0;
    Bytes artifactBytes = 0;
    for (int i = 0; i < kSubSeeds; ++i) {
        HostSpan s(log, "seed " + std::to_string(r.subSeeds[i]));
        Part p = run_part(r.subSeeds[i], i, r.checks);
        fnvMix(r.digest, p.digest);
        r.attempted += p.attempted;
        r.completed += p.completed;
        colds += p.colds;
        for (double v : p.coldMs.values())
            coldMs.add(v);
        for (double v : p.e2eMs.values())
            e2eMs.add(v);
        artifactBytes += p.artifactBytes;
        if (p.cachePeakMiB)
            cachePeak.add(*p.cachePeakMiB);
        setups.add(p.setupS);
        r.wallS += p.setupS + p.runS;
        for (const auto &[name, v] : p.layers)
            r.layers[name] += v / kSubSeeds;
    }
    r.setupS = setups.percentile(50);

    double attempted =
        static_cast<double>(std::max<std::int64_t>(r.attempted, 1));
    r.sim["fig8_err_pct"] = 100.0 * fig8Err.mean();
    r.sim["cold_p50_ms"] = coldMs.percentile(50);
    r.sim["cold_p99_ms"] = r.checks.tail("cold_p99", coldMs, 99);
    r.sim["e2e_p50_ms"] = e2eMs.percentile(50);
    r.sim["e2e_p99_ms"] = r.checks.tail("e2e_p99", e2eMs, 99);
    r.sim["cold_fraction"] =
        static_cast<double>(colds) /
        static_cast<double>(std::max<std::int64_t>(r.completed, 1));
    r.sim["failed_fraction"] =
        static_cast<double>(r.attempted - r.completed) / attempted;
    r.sim["artifact_mib_per_cold"] =
        toMiB(artifactBytes) /
        static_cast<double>(std::max<std::int64_t>(colds, 1));
    if (cachePeak.count() > 0)
        r.sim["cache_peak_mib"] = cachePeak.mean();
    return r;
}

// --------------------------------------------------------------- main

struct Workload
{
    const char *name;
    Result (*run)(std::uint64_t seed, int threads, SpanLog &log);
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"host-reap-burst",
         [](std::uint64_t seed, int, SpanLog &log) {
             return runWorkload(seed, log,
                                [&](std::uint64_t s, int sub, Checks &c) {
                                    return runHostReapBurst(s, sub, log,
                                                            c);
                                });
         }},
        {"fleet-tiered-t2",
         [](std::uint64_t seed, int threads, SpanLog &log) {
             return runWorkload(seed, log,
                                [&](std::uint64_t s, int, Checks &c) {
                                    return runFleet(fleetTieredT2(), s,
                                                    threads, log, c);
                                });
         }},
        {"fleet-dedup-burst",
         [](std::uint64_t seed, int threads, SpanLog &log) {
             return runWorkload(seed, log,
                                [&](std::uint64_t s, int, Checks &c) {
                                    return runFleet(fleetDedupBurst(), s,
                                                    threads, log, c);
                                });
         }},
    };
    return all;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME "
                 "[--seed S] [--sim-threads N] [--json PATH] "
                 "[--trace PATH]\nworkloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fputc('\n', stderr);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, json, trace;
    std::uint64_t seed = 0;
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *value == '-' || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (arg == "--sim-threads") {
            threads = static_cast<int>(std::strtol(value, &end, 10));
            if (*value == '\0' || *end != '\0' || threads < 1 ||
                threads > 4)
                usage("--sim-threads takes 1..4");
        } else if (arg == "--json") {
            json = value;
        } else if (arg == "--trace") {
            trace = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }

    auto it = std::find_if(
        workloads().begin(), workloads().end(),
        [&](const Workload &w) { return workload == w.name; });
    if (it == workloads().end())
        usage(("unknown workload '" + workload + "'").c_str());

    SpanLog log(!trace.empty());
    Result r = it->run(seed, threads, log);
    r.workload = it->name;
    if (!trace.empty() && !log.write(trace, r.subSeeds)) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                     trace.c_str());
        return 1;
    }
    if (!writeResult(r, json)) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                     json.c_str());
        return 1;
    }
    return r.checks.allPassed() ? 0 : 3;
}

/**
 * @file
 * The content-addressed artifact layer: ChunkStore refcount lifecycle
 * (store once, evict only at zero), the chunked-reassembly ==
 * blob-path property, ChunkPageSource cache/remote accounting, the
 * DedupReap loader end-to-end (worker and fleet), the adaptive (AIMD)
 * window satellite, the admit-on-N-hits satellite, and chunk-aware
 * routing.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cluster/cluster.hh"
#include "cluster/routing_policy.hh"
#include "core/options.hh"
#include "core/worker.hh"
#include "func/profile.hh"
#include "mem/chunk_source.hh"
#include "mem/page_fetch.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/chunk_store.hh"
#include "util/rng.hh"
#include "util/units.hh"
#include "vmm/snapshot.hh"

namespace vhive {
namespace {

using sim::Simulation;
using sim::Task;

template <typename Fn>
void
runScenario(Simulation &sim, Fn &&body)
{
    struct Runner {
        static Task<void>
        run(Fn &body)
        {
            co_await body();
        }
    };
    sim.spawn(Runner::run(body));
    sim.run();
}

vmm::ChunkingModel
model(Bytes chunk_bytes = 64 * kKiB, double dup = 0.35,
      bool compression = true)
{
    vmm::ChunkingModel m;
    m.chunkBytes = chunk_bytes;
    m.crossFunctionDupRatio = dup;
    m.compression = compression;
    return m;
}

// ------------------------------------------------- refcount lifecycle

TEST(ChunkStore, StoresOnceAndEvictsOnlyAtZero)
{
    storage::ChunkStore cs;
    storage::ChunkRef a{0x1111, 64 * kKiB, 40 * kKiB};
    storage::ChunkRef b{0x2222, 64 * kKiB, 30 * kKiB};

    EXPECT_TRUE(cs.addRef(a));  // new -> caller owes an upload
    EXPECT_FALSE(cs.addRef(a)); // dedup
    EXPECT_TRUE(cs.addRef(b));
    EXPECT_EQ(cs.refCount(a.hash), 2);
    EXPECT_EQ(cs.chunkCount(), 2);
    EXPECT_EQ(cs.storedBytes(), 70 * kKiB);
    EXPECT_EQ(cs.stats().inserts, 2);
    EXPECT_EQ(cs.stats().dedupHits, 1);
    EXPECT_EQ(cs.stats().dedupSavedBytes, 40 * kKiB);

    // First release only decrements; the chunk stays resident.
    EXPECT_FALSE(cs.release(a.hash));
    EXPECT_TRUE(cs.contains(a.hash));
    EXPECT_EQ(cs.refCount(a.hash), 1);

    // Last reference evicts.
    EXPECT_TRUE(cs.release(a.hash));
    EXPECT_FALSE(cs.contains(a.hash));
    EXPECT_EQ(cs.storedBytes(), 30 * kKiB);
    EXPECT_EQ(cs.stats().evictions, 1);

    // Releasing an absent hash is a tolerated no-op.
    EXPECT_FALSE(cs.release(a.hash));
}

TEST(ChunkStore, ManifestHelpersTrackResidency)
{
    storage::ChunkStore cs;
    auto m = vmm::chunkArtifact("fn/ws", 2 * kMiB, model());
    EXPECT_EQ(cs.residentChunks(m), 0);
    Bytes uploaded = cs.addManifest(m);
    EXPECT_GT(uploaded, 0);
    EXPECT_LE(uploaded, m.storedBytes()); // in-manifest dups collapse
    EXPECT_EQ(cs.residentChunks(m), m.chunkCount());
    EXPECT_DOUBLE_EQ(cs.residentFraction(m), 1.0);
    cs.releaseManifest(m);
    EXPECT_EQ(cs.chunkCount(), 0);
}

// ------------------------------------- chunked reassembly == blob path

TEST(ChunkManifest, PropertyChunkingCoversArtifactExactly)
{
    // For random (artifact size, chunk size): the manifest reassembles
    // to exactly the blob's bytes — full coverage, no overlap, every
    // non-final chunk nominal, identical hash => identical sizes.
    Rng rng(0xded09);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes chunk = kPageSize * rng.uniformInt(1, 64);
        Bytes raw = rng.uniformInt(1, 96) * 37 * kKiB +
                    rng.uniformInt(0, 4096);
        auto m = vmm::chunkArtifact(
            "fn" + std::to_string(trial) + "/ws", raw,
            model(chunk, rng.uniform(), rng.chance(0.5)));

        EXPECT_EQ(m.rawBytes(), raw);
        std::map<storage::ChunkHash, storage::ChunkRef> seen;
        for (size_t i = 0; i < m.chunks.size(); ++i) {
            const auto &c = m.chunks[i];
            EXPECT_GT(c.rawBytes, 0);
            EXPECT_GT(c.storedBytes, 0);
            EXPECT_LE(c.storedBytes, c.rawBytes);
            if (i + 1 < m.chunks.size()) {
                EXPECT_EQ(c.rawBytes, chunk);
            }
            auto it = seen.find(c.hash);
            if (it != seen.end()) {
                EXPECT_EQ(it->second.rawBytes, c.rawBytes);
                EXPECT_EQ(it->second.storedBytes, c.storedBytes);
            }
            seen.emplace(c.hash, c);
        }
        // Random subranges map onto exactly the covering chunks.
        for (int probe = 0; probe < 8; ++probe) {
            Bytes off = rng.uniformInt(0, raw - 1);
            Bytes len = rng.uniformInt(1, raw - off);
            auto [first, last] = m.chunkSpan(off, len);
            EXPECT_LE(static_cast<Bytes>(first) * chunk, off);
            EXPECT_GT(static_cast<Bytes>(first + 1) * chunk, off);
            EXPECT_LT(static_cast<Bytes>(last) * chunk, off + len);
            EXPECT_GE(static_cast<Bytes>(last) * chunk +
                          m.chunks[last].rawBytes,
                      off + len);
        }
    }
}

TEST(ChunkPageSource, ReassemblyMovesBlobIdenticalBytes)
{
    // Any (offset, len) walk through the chunked source serves
    // exactly len raw bytes (cache portion + remote portion), and a
    // full sequential read reassembles the whole artifact.
    const Bytes raw = 5 * kMiB + 3 * kPageSize;
    Simulation sim;
    net::ObjectStore store(sim, net::ObjectStoreParams::remote());
    auto m = vmm::chunkArtifact("fn/ws", raw, model());
    storage::ChunkStore cache;
    mem::ChunkPageSource src(sim, store, m, &cache);
    mem::PageFetchPipeline pipe(sim, src);

    runScenario(sim, [&]() -> Task<void> {
        co_await pipe.fetchWindowed(0, raw, kMiB, 4);
    });

    Bytes served = 0;
    for (const auto &t : src.tierStats())
        served += t.bytes;
    EXPECT_EQ(served, raw);
    EXPECT_EQ(pipe.stats().bytesFetched, raw);

    // Every *distinct* chunk was transferred exactly once — repeats
    // within the manifest were served from the cache — moving the
    // compressed size over the wire, not the raw size.
    std::set<storage::ChunkHash> distinct;
    Bytes distinct_raw = 0, distinct_stored = 0;
    for (const auto &c : m.chunks) {
        if (distinct.insert(c.hash).second) {
            distinct_raw += c.rawBytes;
            distinct_stored += c.storedBytes;
        }
    }
    const auto &cs = src.chunkStats();
    EXPECT_EQ(cs.remoteChunks,
              static_cast<std::int64_t>(distinct.size()));
    EXPECT_EQ(cs.rawBytesFetched, distinct_raw);
    EXPECT_EQ(cs.storedBytesFetched, distinct_stored);
    EXPECT_LT(cs.storedBytesFetched, cs.rawBytesFetched);
    EXPECT_EQ(store.stats().bytesServed, cs.storedBytesFetched);
}

TEST(ChunkPageSource, ResidentChunksServeLocally)
{
    // Two functions whose manifests share runtime-pool chunks: after
    // A's fetch, B's fetch moves only B's unique + unseen chunks.
    Simulation sim;
    net::ObjectStore store(sim, net::ObjectStoreParams::remote());
    auto ma = vmm::chunkArtifact("fnA/ws", 4 * kMiB, model(64 * kKiB, 0.6));
    auto mb = vmm::chunkArtifact("fnB/ws", 4 * kMiB, model(64 * kKiB, 0.6));
    storage::ChunkStore cache; // the worker-wide cache both share
    mem::ChunkPageSource sa(sim, store, ma, &cache);
    mem::ChunkPageSource sb(sim, store, mb, &cache);

    runScenario(sim, [&]() -> Task<void> {
        co_await sa.readAll();
        co_await sb.readAll();
    });

    // The manifests overlap through the shared pool: B's fetch found
    // chunks A already pulled and skipped their transfer.
    std::set<storage::ChunkHash> a_hashes;
    for (const auto &c : ma.chunks)
        a_hashes.insert(c.hash);
    std::set<storage::ChunkHash> b_distinct;
    Bytes b_unseen_stored = 0;
    std::int64_t b_overlap = 0;
    for (const auto &c : mb.chunks) {
        if (!b_distinct.insert(c.hash).second)
            continue;
        if (a_hashes.count(c.hash))
            ++b_overlap;
        else
            b_unseen_stored += c.storedBytes;
    }
    ASSERT_GT(b_overlap, 0);
    EXPECT_GT(sb.chunkStats().cacheChunks, 0);
    EXPECT_EQ(sb.chunkStats().storedBytesFetched, b_unseen_stored);
    // A rerun of A is served entirely from the cache.
    Bytes served_before = store.stats().bytesServed;
    runScenario(sim, [&]() -> Task<void> {
        co_await sa.readAll();
    });
    EXPECT_EQ(store.stats().bytesServed, served_before);
}

// ------------------------------------------------- DedupReap end-to-end

TEST(DedupReap, WorkerColdStartUsesChunkedRemotePath)
{
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    orch.registerFunction(func::profileByName("json_serdes"));

    core::LatencyBreakdown fresh, warmed;
    runScenario(sim, [&]() -> Task<void> {
        co_await orch.prepareSnapshot("json_serdes");
        core::InvokeOptions opts;
        opts.forceCold = true;
        // Record phase, then staging evicts the local copy
        // (fresh-worker model): the next cold walks the chunk path.
        (void)co_await orch.invoke("json_serdes",
                                   core::ColdStartMode::DedupReap,
                                   opts);
        fresh = co_await orch.invoke(
            "json_serdes", core::ColdStartMode::DedupReap, opts);
        warmed = co_await orch.invoke(
            "json_serdes", core::ColdStartMode::DedupReap, opts);
    });

    auto row = [&](const core::LatencyBreakdown &bd,
                   const char *label) -> const mem::TierStats * {
        for (const auto &t : bd.tierHits)
            if (t.label == label)
                return &t;
        return nullptr;
    };
    // Fresh: the chunked backstop served the whole working set...
    const auto *remote = row(fresh, "chunk-remote");
    ASSERT_NE(remote, nullptr);
    EXPECT_GT(remote->bytes, 0);
    // ...and staging + transfer were chunk-level operations.
    EXPECT_GT(w.objectStore().stats().chunkPuts, 0);
    EXPECT_GT(w.objectStore().stats().chunkBatches, 0);
    EXPECT_GT(orch.chunkResidency("json_serdes"), 0.99);
    // Warmed: admission re-localized the artifacts; no remote bytes.
    const auto *remote2 = row(warmed, "chunk-remote");
    ASSERT_NE(remote2, nullptr);
    EXPECT_EQ(remote2->bytes, 0);
    EXPECT_TRUE(orch.artifactsLocal("json_serdes"));
}

TEST(DedupReap, StagingDedupsAcrossFunctionsOnOneWorker)
{
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    cfg.reap.chunkDupRatio = 0.6;
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    orch.registerFunction(func::profileByName("helloworld"));
    orch.registerFunction(func::profileByName("pyaes"));

    runScenario(sim, [&]() -> Task<void> {
        core::InvokeOptions opts;
        opts.forceCold = true;
        for (const char *fn : {"helloworld", "pyaes"}) {
            co_await orch.prepareSnapshot(fn);
            (void)co_await orch.invoke(
                fn, core::ColdStartMode::DedupReap, opts);
            (void)co_await orch.invoke(
                fn, core::ColdStartMode::DedupReap, opts);
        }
    });

    // The second function's staging found shared chunks already in
    // the index: fewer uploads than manifest chunks.
    const auto &idx = orch.stagedChunkIndex();
    EXPECT_GT(idx.stats().dedupHits, 0);
    EXPECT_GT(idx.stats().dedupSavedBytes, 0);
    EXPECT_EQ(static_cast<std::int64_t>(
                  w.objectStore().stats().chunkPuts),
              idx.stats().inserts);
}

TEST(DedupReap, FleetSharedStagingCountsDedupInFleetStats)
{
    Simulation sim;
    cluster::ClusterConfig cfg;
    cfg.workers = 4;
    cfg.coldStartMode = core::ColdStartMode::DedupReap;
    cfg.sharedSnapshots = true;
    cfg.keepAlive = sec(60);
    cluster::Cluster c(sim, cfg);
    c.deploy(func::profileByName("helloworld"));
    c.deploy(func::profileByName("pyaes"));
    c.deploy(func::profileByName("json_serdes"));

    runScenario(sim, [&]() -> Task<void> {
        co_await c.prepareAllSnapshots();
        for (const char *fn : {"helloworld", "pyaes", "json_serdes"})
            (void)co_await c.invoke(fn);
    });

    auto fs = c.fleetStats();
    EXPECT_GT(fs.chunkLogicalBytes, 0);
    EXPECT_GT(fs.chunkStoredBytes, 0);
    EXPECT_GT(fs.dedupSavedBytes, 0); // cross-function chunks
    EXPECT_GT(fs.dedupRatio(), 0.0);
    EXPECT_LT(fs.dedupRatio(), 1.0);
    EXPECT_GT(fs.chunksStored, 0);
    EXPECT_GT(fs.chunksDeduped, 0);
    // Every distinct staged chunk was uploaded exactly once.
    EXPECT_GT(fs.chunksUploaded, 0);
    EXPECT_EQ(fs.chunksUploaded, fs.chunksStored);
    // Chunked staging moved strictly fewer bytes than the blobs.
    EXPECT_LT(fs.stagedBytes, fs.chunkLogicalBytes);
    // One build per function, as with blob staging.
    EXPECT_EQ(fs.snapshotBuilds, 3);
}

TEST(DedupReap, InvalidateRetainsRefsUntilRetire)
{
    Simulation sim;
    core::WorkerConfig cfg;
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    orch.registerFunction(func::profileByName("helloworld"));

    runScenario(sim, [&]() -> Task<void> {
        co_await orch.prepareSnapshot("helloworld");
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke(
            "helloworld", core::ColdStartMode::DedupReap, opts);
        (void)co_await orch.invoke(
            "helloworld", core::ColdStartMode::DedupReap, opts);
    });
    ASSERT_TRUE(orch.manifests("helloworld") != nullptr);
    std::int64_t staged = orch.stagedChunkIndex().chunkCount();
    ASSERT_GT(staged, 0);

    // Invalidation keeps the outgoing version's references alive so
    // the re-record's staging can diff against them (delta
    // manifests): nothing is released yet.
    orch.invalidateRecord("helloworld");
    EXPECT_EQ(orch.manifests("helloworld"), nullptr);
    EXPECT_EQ(orch.stagedChunkIndex().chunkCount(), staged);
    EXPECT_EQ(orch.stagedChunkIndex().stats().evictions, 0);

    // Retiring the function (fleet GC) releases everything; with a
    // single function every staged chunk hits refcount zero.
    orch.retireRecord("helloworld");
    EXPECT_EQ(orch.stagedChunkIndex().chunkCount(), 0);
    EXPECT_EQ(orch.stagedChunkIndex().stats().evictions, staged);

    // Idempotent: a second retire finds nothing to release.
    orch.retireRecord("helloworld");
    EXPECT_EQ(orch.stagedChunkIndex().chunkCount(), 0);
    EXPECT_EQ(orch.stagedChunkIndex().stats().evictions, staged);
}

TEST(DedupReap, SharedChunkRefsReleaseInOrder)
{
    // Release ordering of the staged index under retirement: a chunk
    // referenced by two functions must survive the first function's
    // retireRecord() with exactly the other function's references, a
    // repeated retirement must release nothing (no double-release, no
    // negative counts), and only the last holder's retirement evicts.
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    cfg.reap.chunkDupRatio = 0.6;
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    orch.registerFunction(func::profileByName("helloworld"));
    orch.registerFunction(func::profileByName("pyaes"));

    runScenario(sim, [&]() -> Task<void> {
        core::InvokeOptions opts;
        opts.forceCold = true;
        for (const char *fn : {"helloworld", "pyaes"}) {
            co_await orch.prepareSnapshot(fn);
            (void)co_await orch.invoke(
                fn, core::ColdStartMode::DedupReap, opts);
            (void)co_await orch.invoke(
                fn, core::ColdStartMode::DedupReap, opts);
        }
    });

    auto hw = orch.manifests("helloworld");
    auto py = orch.manifests("pyaes");
    ASSERT_NE(hw, nullptr);
    ASSERT_NE(py, nullptr);
    auto countRefs = [](const vmm::SnapshotManifests &m,
                        storage::ChunkHash h) {
        std::int64_t n = 0;
        for (const auto *man : {&m.vmmState, &m.ws})
            for (const auto &c : man->chunks)
                if (c.hash == h)
                    ++n;
        return n;
    };
    // A chunk both functions staged (chunkDupRatio guarantees one).
    storage::ChunkHash shared_hash{};
    bool found = false;
    for (const auto &c : hw->ws.chunks) {
        if (countRefs(*py, c.hash) > 0) {
            shared_hash = c.hash;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);

    const auto &staged = orch.stagedChunkIndex();
    EXPECT_EQ(staged.refCount(shared_hash),
              countRefs(*hw, shared_hash) +
                  countRefs(*py, shared_hash));

    // Retire helloworld: the shared chunk keeps pyaes's references.
    orch.retireRecord("helloworld");
    EXPECT_EQ(staged.refCount(shared_hash),
              countRefs(*py, shared_hash));
    EXPECT_DOUBLE_EQ(staged.residentFraction(py->ws), 1.0);
    EXPECT_DOUBLE_EQ(staged.residentFraction(py->vmmState), 1.0);

    // Repeated retirement finds nothing left to release.
    std::int64_t count_after = staged.chunkCount();
    orch.retireRecord("helloworld");
    EXPECT_EQ(staged.chunkCount(), count_after);
    EXPECT_EQ(staged.refCount(shared_hash),
              countRefs(*py, shared_hash));

    // The last holder's retirement evicts everything.
    orch.retireRecord("pyaes");
    EXPECT_EQ(staged.refCount(shared_hash), 0);
    EXPECT_EQ(staged.chunkCount(), 0);
}

TEST(DedupReap, InvalidateMidColdStartKeepsIndexConsistent)
{
    // invalidateRecord() racing an in-flight cold start: the loader
    // pinned the manifests, so the fetch completes normally, the old
    // version's references are retained for delta diffing (the other
    // function's stay fully resident), and a re-record + re-stage
    // moves only the churned chunks before converging back to a
    // fully staged pair.
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    cfg.reap.chunkDupRatio = 0.6;
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    orch.registerFunction(func::profileByName("helloworld"));
    orch.registerFunction(func::profileByName("pyaes"));

    runScenario(sim, [&]() -> Task<void> {
        core::InvokeOptions opts;
        opts.forceCold = true;
        for (const char *fn : {"helloworld", "pyaes"}) {
            co_await orch.prepareSnapshot(fn);
            (void)co_await orch.invoke(
                fn, core::ColdStartMode::DedupReap, opts);
            (void)co_await orch.invoke(
                fn, core::ColdStartMode::DedupReap, opts);
        }
    });
    auto hw = orch.manifests("helloworld");
    auto py = orch.manifests("pyaes");
    ASSERT_NE(hw, nullptr);
    ASSERT_NE(py, nullptr);

    // Model a worker that lost its local copies: the next cold start
    // must walk the chunk-remote path, a long in-flight fetch.
    orch.localChunkCache().releaseManifest(hw->ws);
    orch.localChunkCache().releaseManifest(hw->vmmState);
    orch.evictLocalArtifacts("helloworld");
    orch.flushHostCaches();

    core::LatencyBreakdown bd;
    bool invoke_done = false;
    bool raced_in_flight = false;
    struct Invoker {
        static Task<void>
        run(core::Orchestrator &orch, core::LatencyBreakdown *bd,
            bool *done)
        {
            core::InvokeOptions opts;
            opts.forceCold = true;
            *bd = co_await orch.invoke(
                "helloworld", core::ColdStartMode::DedupReap, opts);
            *done = true;
        }
    };
    runScenario(sim, [&]() -> Task<void> {
        sim.spawn(Invoker::run(orch, &bd, &invoke_done));
        co_await sim.delay(msec(10));
        raced_in_flight = !invoke_done;
        orch.invalidateRecord("helloworld");
    });

    // The invalidation really raced the cold start, which still
    // completed against the pinned manifest.
    EXPECT_TRUE(raced_in_flight);
    EXPECT_TRUE(invoke_done);
    EXPECT_TRUE(bd.cold);
    EXPECT_FALSE(bd.crashed);
    EXPECT_GT(bd.total, 0);
    EXPECT_EQ(orch.manifests("helloworld"), nullptr);

    // Delta retention: the old version's references survive the
    // invalidation, so *both* functions are still fully resident in
    // the staged index (nothing released before the delta lands).
    const auto &staged = orch.stagedChunkIndex();
    EXPECT_DOUBLE_EQ(staged.residentFraction(py->ws), 1.0);
    EXPECT_DOUBLE_EQ(staged.residentFraction(py->vmmState), 1.0);
    EXPECT_DOUBLE_EQ(staged.residentFraction(hw->ws), 1.0);
    EXPECT_DOUBLE_EQ(staged.residentFraction(hw->vmmState), 1.0);

    // Re-record + re-stage: record phase first (the invalidation
    // cleared the record), then a chunked cold start stages the new
    // version as a delta against the retained old references.
    runScenario(sim, [&]() -> Task<void> {
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke(
            "helloworld", core::ColdStartMode::DedupReap, opts);
        (void)co_await orch.invoke(
            "helloworld", core::ColdStartMode::DedupReap, opts);
    });
    EXPECT_TRUE(orch.hasRecord("helloworld"));
    auto hw2 = orch.manifests("helloworld");
    ASSERT_NE(hw2, nullptr);
    EXPECT_DOUBLE_EQ(staged.residentFraction(hw2->ws), 1.0);
    EXPECT_DOUBLE_EQ(staged.residentFraction(hw2->vmmState), 1.0);
    EXPECT_DOUBLE_EQ(staged.residentFraction(py->ws), 1.0);

    // The delta landed: only the churned chunks were re-uploaded
    // (strictly fewer than a full manifest), at least one chunk
    // carried over unchanged, and the old version's exclusive chunks
    // are gone — the index holds exactly py ∪ hw2.
    const auto &st = orch.stats("helloworld");
    std::int64_t hw2_chunks =
        static_cast<std::int64_t>(hw2->ws.chunks.size() +
                                  hw2->vmmState.chunks.size());
    EXPECT_EQ(st.deltaRestages, 1);
    EXPECT_GT(st.deltaChunksUnchanged, 0);
    EXPECT_GT(st.deltaChunksUploaded, 0); // churn really happened
    EXPECT_LT(st.deltaChunksUploaded, hw2_chunks / 2);
    std::set<storage::ChunkHash> keep;
    for (const auto *m : {py.get(), hw2.get()})
        for (const auto *man : {&m->vmmState, &m->ws})
            for (const auto &c : man->chunks)
                keep.insert(c.hash);
    EXPECT_EQ(staged.chunkCount(),
              static_cast<std::int64_t>(keep.size()));
}

// ------------------------------------------------- adaptive AIMD window

TEST(AdaptiveWindow, ConvergesIntoSweetSpotBand)
{
    // windowBytes == 0 => AIMD. Against the remote store defaults the
    // controller must converge into the sweet-spot band the
    // bench_tiered_window_sweep maps (hundreds of KiB to ~2 MiB), and
    // land within a modest factor of the best fixed window's time.
    const Bytes len = 48 * kMiB;
    auto run = [&](Bytes window) {
        Simulation sim;
        net::ObjectStore store(sim, net::ObjectStoreParams::remote());
        mem::RemoteObjectSource src(store);
        mem::PageFetchPipeline pipe(sim, src);
        Duration took = 0;
        runScenario(sim, [&]() -> Task<void> {
            co_await pipe.fetchWindowed(0, len, window, 4, &took);
        });
        return std::pair<Duration, Bytes>(
            took, pipe.stats().convergedWindowBytes);
    };

    auto [adaptive_t, converged] = run(0);
    auto [fixed_t, ignored] = run(kMiB); // the PR 2 sweet spot
    (void)ignored;

    EXPECT_GE(converged, 256 * kKiB);
    EXPECT_LE(converged, 2 * kMiB);
    EXPECT_LE(static_cast<double>(adaptive_t),
              1.3 * static_cast<double>(fixed_t));

    // And it still moves exactly the artifact's bytes.
    Simulation sim;
    net::ObjectStore store(sim, net::ObjectStoreParams::remote());
    mem::RemoteObjectSource src(store);
    mem::PageFetchPipeline pipe(sim, src);
    runScenario(sim, [&]() -> Task<void> {
        co_await pipe.fetchWindowed(0, len, 0, 4);
    });
    EXPECT_EQ(pipe.stats().bytesFetched, len);
    EXPECT_EQ(store.stats().bytesServed, len);
    EXPECT_EQ(pipe.stats().adaptiveFetches, 1);
}

TEST(AdaptiveWindow, TieredLoaderUsesAdaptiveModeAtZeroWindow)
{
    Simulation sim;
    core::WorkerConfig cfg;
    cfg.objectStore = net::ObjectStoreParams::remote();
    cfg.reap.tieredWindowBytes = 0; // adaptive
    core::Worker w(sim, cfg);
    auto &orch = w.orchestrator();
    orch.registerFunction(func::profileByName("json_serdes"));

    core::LatencyBreakdown fresh;
    runScenario(sim, [&]() -> Task<void> {
        co_await orch.prepareSnapshot("json_serdes");
        core::InvokeOptions opts;
        opts.forceCold = true;
        (void)co_await orch.invoke("json_serdes",
                                   core::ColdStartMode::TieredReap,
                                   opts);
        fresh = co_await orch.invoke(
            "json_serdes", core::ColdStartMode::TieredReap, opts);
    });
    // The fresh fetch went remote through ranged GETs sized by the
    // controller — more than one window, fewer than one per page.
    std::int64_t ranged = w.objectStore().stats().rangedGets;
    EXPECT_GT(ranged, 1);
    EXPECT_LT(ranged,
              func::profileByName("json_serdes").wsPages());
    EXPECT_GT(fresh.fetchWs, 0);
}

// ---------------------------------------------------- admit-after-hits

TEST(TieredAdmission, AdmitAfterTwoHitsDelaysLocalization)
{
    auto run_colds = [](int admit_after) {
        Simulation sim;
        core::WorkerConfig cfg;
        cfg.objectStore = net::ObjectStoreParams::remote();
        cfg.reap.admitAfterHits = admit_after;
        core::Worker w(sim, cfg);
        auto &orch = w.orchestrator();
        orch.registerFunction(func::profileByName("json_serdes"));
        std::vector<bool> local_after;
        runScenario(sim, [&]() -> Task<void> {
            co_await orch.prepareSnapshot("json_serdes");
            core::InvokeOptions opts;
            opts.forceCold = true;
            // Record + stage (evicts local copy).
            (void)co_await orch.invoke(
                "json_serdes", core::ColdStartMode::TieredReap, opts);
            for (int i = 0; i < 3; ++i) {
                (void)co_await orch.invoke(
                    "json_serdes", core::ColdStartMode::TieredReap,
                    opts);
                local_after.push_back(
                    orch.artifactsLocal("json_serdes"));
            }
        });
        return local_after;
    };

    // N=1 (default): the first post-staging cold localizes.
    auto n1 = run_colds(1);
    ASSERT_EQ(n1.size(), 3u);
    EXPECT_TRUE(n1[0]);

    // N=2: the first cold start pays remote WITHOUT admitting; the
    // second admits and localizes; the third is local.
    auto n2 = run_colds(2);
    ASSERT_EQ(n2.size(), 3u);
    EXPECT_FALSE(n2[0]);
    EXPECT_TRUE(n2[1]);
    EXPECT_TRUE(n2[2]);
}

// ------------------------------------------------- chunk-aware routing

struct StubFleet final : public cluster::FleetView
{
    std::vector<double> residency{0.0, 0.0, 0.0, 0.0};

    int
    workerCount() const override
    {
        return static_cast<int>(residency.size());
    }
    std::int64_t
    idleInstances(int, const std::string &) const override
    {
        return 0; // all cold
    }
    std::int64_t inFlight(int) const override { return 0; }
    bool warming(const std::string &) const override { return false; }
    double
    chunkResidency(int worker, const std::string &) const override
    {
        return residency[static_cast<size_t>(worker)];
    }
};

TEST(LocalityHash, OverlapWeightRoutesToChunkRichWorker)
{
    StubFleet fleet;
    const std::string name = "fn";
    int home = cluster::LocalityHashPolicy::homeWorker(name, 4);
    int rich = (home + 2) % 4; // chunk-rich worker away from home
    fleet.residency[static_cast<size_t>(rich)] = 0.9;

    cluster::LocalityHashPolicy plain;
    EXPECT_EQ(plain.route(cluster::RouteContext{name, fleet}), home);

    cluster::LocalityHashPolicy weighted;
    weighted.setOverlapWeight(2.0);
    // 2.0 * 0.9 resident beats the ring-distance penalty: the cold
    // start goes where the chunks already are.
    EXPECT_EQ(weighted.route(cluster::RouteContext{name, fleet}),
              rich);

    // With no residency anywhere the weighted pick degrades to home.
    fleet.residency.assign(4, 0.0);
    EXPECT_EQ(weighted.route(cluster::RouteContext{name, fleet}),
              home);
}

} // namespace
} // namespace vhive

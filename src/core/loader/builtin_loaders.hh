/**
 * @file
 * The built-in cold-start strategies, one per ColdStartMode, plus the
 * shared record phase. Every page-moving loader composes the
 * mem::PageFetchPipeline over a PageSource, so the Fig. 7 design walk
 * reads as a table of (source, shape) choices:
 *
 *   BootFromScratch    — no snapshot; boot from the rootfs image
 *   VanillaSnapshot    — kernel lazy paging, per-fault disk reads
 *   ParallelPageFaults — buffered source, strided per-page workers
 *   WsFileCached       — buffered source, one contiguous WS read
 *   Reap               — direct (O_DIRECT) source, one contiguous read
 *
 * The Sec. 7.1 remote modes are presets of one TieredLoader, each a
 * (tiers, backstop, priority) choice:
 *
 *   RemoteReap         — no local tier, blob backstop, foreground
 *   TieredReap         — page cache -> SSD, blob backstop, foreground
 *   DedupReap          — page cache -> SSD, chunked backstop, foreground
 *   BackgroundWarm     — page cache -> SSD, chunked iff manifests,
 *                        background
 */

#ifndef VHIVE_CORE_LOADER_BUILTIN_LOADERS_HH
#define VHIVE_CORE_LOADER_BUILTIN_LOADERS_HH

#include <memory>
#include <string>

#include "core/loader/loader.hh"
#include "mem/page_fetch.hh"
#include "mem/page_source.hh"

namespace vhive::core::loader {

/** Boot a new VM from the root filesystem (no snapshot). */
class BootLoader final : public SnapshotLoader
{
  public:
    const char *name() const override { return "boot"; }
    bool needsSnapshot() const override { return false; }
    Bytes
    expectedResidency(const FunctionState &st) const override
    {
        return st.profile.bootFootprint;
    }
    sim::Task<LatencyBreakdown> load(LoadContext ctx) override;
};

/** Vanilla Firecracker snapshots: lazy kernel paging (Sec. 2.3). */
class VanillaSnapshotLoader final : public SnapshotLoader
{
  public:
    const char *name() const override { return "vanilla"; }
    sim::Task<LatencyBreakdown> load(LoadContext ctx) override;
};

/**
 * The record phase (Sec. 5.2.1): first REAP-family cold start runs
 * with a recording monitor, then persists the trace and WS files.
 * Shared by every needsRecord() mode via the registry.
 */
class RecordLoader final : public SnapshotLoader
{
  public:
    const char *name() const override { return "record"; }
    sim::Task<LatencyBreakdown> load(LoadContext ctx) override;
};

/**
 * Common skeleton of the prefetching modes: restore VMM state
 * (optionally overlapped with the WS fetch), move the recorded pages
 * through a PageFetchPipeline, install them eagerly, then resume with
 * a prefetch-mode monitor serving residual faults. Subclasses pick the
 * PageSource and the fetch shape.
 */
class PrefetchLoader : public SnapshotLoader
{
  public:
    bool needsRecord() const override { return true; }
    sim::Task<LatencyBreakdown> load(LoadContext ctx) override;

  protected:
    /** Source the working-set bytes are fetched from. */
    virtual std::unique_ptr<mem::PageSource>
    makeSource(LoadContext &ctx) const = 0;

    /**
     * True: strided per-page fetch+install (ParallelPageFaults).
     * False: one contiguous fetch, then a batched eager install.
     */
    virtual bool interleavedInstall() const { return false; }

    /** Whether the WS fetch may overlap the VMM-state load. */
    virtual bool supportsOverlap() const { return false; }

    /**
     * One-time staging before timing starts (the remote modes upload
     * the snapshot artifacts to the store). Default: no-op.
     */
    virtual sim::Task<void> ensureStaged(LoadContext ctx);

    /**
     * Work on the restore critical path before the local VMM-state
     * load (the remote modes download the state). Default: no-op.
     */
    virtual sim::Task<void> preRestore(LoadContext ctx);

    /**
     * The non-interleaved WS fetch shape. Default: one contiguous
     * read of [0, len).
     */
    virtual sim::Task<void> fetchWs(LoadContext &ctx,
                                    mem::PageFetchPipeline &pipeline,
                                    Bytes len, Duration *out);

  private:
    /** Batched UFFDIO_COPY install of the recorded set. */
    sim::Task<void> installWorkingSet(LoadContext &ctx);
};

/**
 * Fig. 7 design point 2: trace-directed parallel page-sized reads of
 * the guest-memory snapshot image (the trace file supplies the page
 * list; the bytes come from the memory image).
 */
class ParallelPageFaultsLoader final : public PrefetchLoader
{
  public:
    const char *name() const override { return "parallel-pf"; }

  protected:
    std::unique_ptr<mem::PageSource>
    makeSource(LoadContext &ctx) const override;
    bool interleavedInstall() const override { return true; }
};

/** Fig. 7 design point 3: one buffered WS-file read via the cache. */
class WsFileCachedLoader final : public PrefetchLoader
{
  public:
    const char *name() const override { return "ws-file"; }

  protected:
    std::unique_ptr<mem::PageSource>
    makeSource(LoadContext &ctx) const override;
};

/** Full REAP: single O_DIRECT WS read + eager install (Sec. 5.2.3). */
class ReapLoader final : public PrefetchLoader
{
  public:
    const char *name() const override { return "reap"; }

  protected:
    std::unique_ptr<mem::PageSource>
    makeSource(LoadContext &ctx) const override;
    bool supportsOverlap() const override { return true; }
};

/**
 * The three choices a TieredLoader is built from, fixed when the
 * LoaderRegistry registers a remote mode (see tieredPreset()).
 *
 * Tiers: None serves the WS from the backstop in one bulk GET and
 * always fetches the VMM state remotely. LocalChain walks page cache
 * -> local SSD first (tieredPageCacheTier / tieredLocalTier) with
 * warm-tier admission; staging models a fresh worker
 * (tieredFreshWorker) and a valid local copy skips the state fetch.
 *
 * Backstop: Blob is one staged object (one put(), bulk or ranged
 * GETs). Chunked is content-addressed ("How Low Can You Go?",
 * arXiv:2109.13319): each distinct chunk staged once, fetched as
 * batched compressed GETs, served from the worker chunk cache when
 * any function already pulled it. ChunkedIfManifest is Chunked when
 * the function has manifests — staged by the dedup path, never here —
 * else Blob.
 *
 * Priority: Foreground fetches tieredInFlight windows of
 * tieredWindowBytes at once; Background (Sec. 6.3 warming) keeps one
 * AIMD-sized window in flight, paced by bgWarmPace, so warming yields
 * the fabric to foreground cold starts.
 */
struct TieredPreset
{
    enum class Tiers { None, LocalChain };
    enum class Backstop { Blob, Chunked, ChunkedIfManifest };
    enum class Priority { Foreground, Background };

    Tiers tiers;
    Backstop backstop;
    Priority priority;
};

/** Register one TieredLoader per remote preset. */
void registerTieredLoaders(LoaderRegistry &registry);

/** The preset behind @p mode; nullptr for modes that stay local. */
const TieredPreset *tieredPreset(ColdStartMode mode);

/**
 * The preset of @p mode when a fleet registry can stage its artifacts
 * once for every worker, which needs a fixed artifact format (a Blob
 * or Chunked backstop). Fatal for any other mode.
 */
const TieredPreset &sharedStagingPreset(ColdStartMode mode);

/**
 * The mode control-plane pre-warms run in for a fleet in @p mode:
 * remote modes warm at background priority, local modes as
 * themselves.
 */
ColdStartMode preWarmModeFor(ColdStartMode mode);

/**
 * Placement key for @p function's artifacts: content and scope are
 * both the function-name hash, so blob artifacts hash-place per
 * function and chunk uploads carry the owning function as scope for
 * overlap-aware co-location. Unsharded stores ignore it.
 */
net::PlacementKey artifactKey(const std::string &function);

/** Client-side chunk transfer costs from the ReapOptions knobs. */
mem::ChunkSourceParams chunkParams(const ReapOptions &reap);

/**
 * The Sec. 7.1 remote cold-start family as one loader: REAP with the
 * snapshot artifacts in a remote store, pulled through zero or more
 * local tiers. The first use stages the artifacts into the store, off
 * the timed path. Per-tier hit/byte/latency accounting lands in
 * LatencyBreakdown::tierHits.
 */
class TieredLoader final : public PrefetchLoader
{
  public:
    TieredLoader(ColdStartMode mode, TieredPreset preset);

    const char *name() const override;

  protected:
    std::unique_ptr<mem::PageSource>
    makeSource(LoadContext &ctx) const override;
    bool supportsOverlap() const override { return true; }
    sim::Task<void> ensureStaged(LoadContext ctx) override;
    sim::Task<void> preRestore(LoadContext ctx) override;
    sim::Task<void> fetchWs(LoadContext &ctx,
                            mem::PageFetchPipeline &pipeline, Bytes len,
                            Duration *out) override;

  private:
    /** Whether this cold start uses the chunked backstop. */
    bool chunked(const LoadContext &ctx) const;

    /** The chain's always-holds lowest tier. */
    std::unique_ptr<mem::PageSource> makeBackstop(LoadContext &ctx) const;

    ColdStartMode mode;
    TieredPreset preset;
};

} // namespace vhive::core::loader

#endif // VHIVE_CORE_LOADER_BUILTIN_LOADERS_HH

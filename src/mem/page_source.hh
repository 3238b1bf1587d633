/**
 * @file
 * The PageSource abstraction: where snapshot bytes come from when a
 * cold start moves pages into guest memory. The Fig. 7 design walk and
 * the Sec. 7.1 remote-storage scenario differ only in which source
 * backs the fetch:
 *
 *  - BufferedFileSource: pread() through the host page cache
 *    (ParallelPageFaults, WsFileCached).
 *  - DirectFileSource:   O_DIRECT, bypassing the cache (full REAP).
 *  - RemoteObjectSource: bulk object GETs from a disaggregated store
 *    over the datacenter network (RemoteReap).
 *
 * Sources translate byte ranges of their backing object into simulated
 * I/O cost; the PageFetchPipeline composes them into fetch shapes.
 */

#ifndef VHIVE_MEM_PAGE_SOURCE_HH
#define VHIVE_MEM_PAGE_SOURCE_HH

#include <vector>

#include "mem/tier_stats.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/file_store.hh"
#include "util/units.hh"

namespace vhive::mem {

/**
 * A supplier of snapshot bytes, addressed as ranges of one backing
 * object (a file's extent or a stored object).
 */
class PageSource
{
  public:
    virtual ~PageSource() = default;

    /** Human-readable source name (diagnostics, bench tables). */
    virtual const char *name() const = 0;

    /** Bring [offset, offset+len) in; completes when all bytes did. */
    virtual sim::Task<void> read(Bytes offset, Bytes len) = 0;

    /** Per-tier accounting; empty unless the source is tiered. */
    virtual std::vector<TierStats> tierStats() const { return {}; }
};

/** pread()-path source: fills and benefits from the page cache. */
class BufferedFileSource final : public PageSource
{
  public:
    BufferedFileSource(storage::FileStore &fs, storage::FileId file)
        : fs(fs), file(file)
    {
    }

    const char *name() const override { return "buffered-file"; }
    sim::Task<void> read(Bytes offset, Bytes len) override;

  private:
    storage::FileStore &fs;
    storage::FileId file;
};

/** O_DIRECT source: device cost every time, no cache pollution. */
class DirectFileSource final : public PageSource
{
  public:
    DirectFileSource(storage::FileStore &fs, storage::FileId file)
        : fs(fs), file(file)
    {
    }

    const char *name() const override { return "direct-file"; }
    sim::Task<void> read(Bytes offset, Bytes len) override;

  private:
    storage::FileStore &fs;
    storage::FileId file;
};

/**
 * Remote object-storage source (Sec. 7.1): every read is an object
 * GET paying the store's round trip and service costs, so per-page
 * access collapses while one bulk read amortizes well.
 */
class RemoteObjectSource final : public PageSource
{
  public:
    explicit RemoteObjectSource(net::ArtifactStore &store,
                                net::PlacementKey key = {})
        : store(store), key(key)
    {
    }

    const char *name() const override { return "remote-object"; }
    sim::Task<void> read(Bytes offset, Bytes len) override;

  private:
    net::ArtifactStore &store;
    net::PlacementKey key;
};

} // namespace vhive::mem

#endif // VHIVE_MEM_PAGE_SOURCE_HH

/**
 * @file
 * Extent-mapped files on a DiskDevice plus a host page-cache model.
 *
 * Three read paths with distinct cost structures (this split is what
 * the paper's Fig. 7 walk exploits):
 *
 *  - readBuffered(): the pread()/syscall path. Missing pages are
 *    coalesced into windows, submitted through a serialized block-layer
 *    "plug" stage (cheap), pipelined up to a depth, and inserted into
 *    the cache with per-page copy costs.
 *  - readDirect(): the O_DIRECT path. One device request for the whole
 *    range (striped internally by the device), no cache pollution; only
 *    per-page pin costs. This is REAP's WS-file fetch (Sec. 5.2.3).
 *  - faultRead(): the mmap lazy-fault path used by vanilla snapshot
 *    restore. Every miss pays fault handling plus a substantially more
 *    expensive serialized block-layer stage (fault-around, page-table
 *    and mmap_sem work), which is why lazy paging extracts only tens of
 *    MB/s from a disk capable of hundreds (Sec. 4.2, Fig. 9).
 *
 * The plug is one FIFO stage with a known service time, kept as the
 * time at which it next goes idle: a miss books its slot on arrival
 * and sleeps once until the slot ends, then enters the device.
 */

#ifndef VHIVE_STORAGE_FILE_STORE_HH
#define VHIVE_STORAGE_FILE_STORE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "storage/disk.hh"
#include "util/page_set.hh"
#include "util/units.hh"

namespace vhive::storage {

/** Opaque handle to a file inside a FileStore. */
using FileId = std::int32_t;

constexpr FileId kInvalidFile = -1;

/** Page-cache and I/O-path calibration constants. */
struct IoPathParams
{
    /** Max bytes fetched per buffered-miss device request. */
    Bytes windowBytes = 128 * kKiB;

    /** Concurrent in-flight windows for one buffered read. */
    int readPipelineDepth = 4;

    /** Serialized block-layer submission cost, pread path. */
    Duration preadMissPlug = usec(30);

    /** Serialized block-layer + fault machinery cost, mmap-fault path. */
    Duration faultMissPlug = usec(120);

    /** Copy-to-user cost per cached page (pread hit or after fill). */
    Duration perPageCopy = static_cast<Duration>(300);

    /** Page-cache insertion cost per page. */
    Duration perPageInsert = static_cast<Duration>(400);

    /** Per-page pin/iovec preparation cost for O_DIRECT. */
    Duration perPagePin = static_cast<Duration>(1500);

    /** Fixed syscall overhead per read/write call. */
    Duration syscall = usec(2);

    /** Minor-fault cost when the page is already resident in cache. */
    Duration minorFault = usec(2);

    /**
     * Extra bytes the kernel fault path reads ahead past the faulting
     * run. Zero for SSDs (the paper shows read-ahead is defeated by
     * the sparse access pattern); the HDD elevator/readahead amortizes
     * seeks over ~48 KiB windows (Sec. 6.3 HDD study).
     */
    Bytes faultReadahead = 0;
};

/** Statistics for cache behaviour, readable by tests and benches. */
struct FileStoreStats
{
    std::int64_t cacheHits = 0;
    std::int64_t cacheMisses = 0;
    std::int64_t directReads = 0;
    std::int64_t faultMisses = 0;
    std::int64_t dropCacheCalls = 0;
};

/**
 * A flat namespace of extent-allocated files over one DiskDevice, with
 * a shared page cache. All sizes are page-aligned internally.
 */
class FileStore
{
  public:
    FileStore(sim::Simulation &sim, DiskDevice &disk,
              IoPathParams params = IoPathParams{});

    FileStore(const FileStore &) = delete;
    FileStore &operator=(const FileStore &) = delete;

    /** Create a file of @p bytes (rounded up to pages). */
    FileId createFile(const std::string &name, Bytes bytes);

    /** Look up a file by name; kInvalidFile when absent. */
    FileId lookup(const std::string &name) const;

    /** Size in bytes (page aligned). */
    Bytes fileSize(FileId f) const;

    /** File name (for diagnostics). */
    const std::string &fileName(FileId f) const;

    /**
     * Grow or shrink a file. Growth reallocates the extent, dropping
     * cached pages (simplified; only used when re-recording WS files).
     */
    void truncate(FileId f, Bytes bytes);

    /** pread()-style buffered read; populates the cache. */
    sim::Task<void> readBuffered(FileId f, Bytes offset, Bytes len);

    /** O_DIRECT read: bypasses and does not populate the cache. */
    sim::Task<void> readDirect(FileId f, Bytes offset, Bytes len);

    /**
     * mmap lazy-fault service of @p len bytes at @p offset: the cost of
     * the kernel bringing this range in on a major fault. Populates the
     * cache. Cached ranges cost only a minor fault.
     */
    sim::Task<void> faultRead(FileId f, Bytes offset, Bytes len);

    /**
     * Buffered write: dirties cache pages at copy cost and schedules
     * asynchronous writeback to the device (not awaited).
     */
    sim::Task<void> writeBuffered(FileId f, Bytes offset, Bytes len);

    /** Synchronous O_DIRECT write (awaits device completion). */
    sim::Task<void> writeDirect(FileId f, Bytes offset, Bytes len);

    /** Whether every page of the range is cache-resident. */
    bool isCached(FileId f, Bytes offset, Bytes len) const;

    /** Drop the entire page cache (`echo 3 > drop_caches`). */
    void dropCaches();

    /** Drop one file's cached pages (fadvise DONTNEED). */
    void dropFileCaches(FileId f);

    /**
     * Drop the cached pages covering [offset, offset+len) of one file
     * (ranged fadvise DONTNEED) — the page-cache tier budget's
     * eviction primitive. Out-of-range pages are ignored.
     */
    void dropFileCacheRange(FileId f, Bytes offset, Bytes len);

    const FileStoreStats &stats() const { return _stats; }
    void resetStats() { _stats = FileStoreStats{}; }

    DiskDevice &device() { return disk; }
    const IoPathParams &params() const { return _params; }

  private:
    struct File {
        std::string name;
        Bytes baseLba = 0;
        Bytes size = 0;
        // Cached pages; grown on first insert, so a file never read
        // on this host holds no bits.
        PageSet cached;
    };

    File &get(FileId f);
    const File &get(FileId f) const;

    /** Awaitable: book the plug's next @p cost slot, sleep to its end. */
    auto
    passPlug(Duration cost)
    {
        plugFree = std::max(plugFree, sim.now()) + cost;
        return sim.delay(plugFree - sim.now());
    }

    /** Fetch one missing chunk through the buffered path. */
    sim::Task<void> fetchWindow(FileId f, Bytes offset, Bytes len,
                                sim::Semaphore *pipeline);

    sim::Simulation &sim;
    DiskDevice &disk;
    IoPathParams _params;
    FileStoreStats _stats;
    // deque, not vector: the coroutine I/O paths hold File& across
    // suspension points, and a concurrent createFile (another
    // invocation's cold start on the same worker) must not invalidate
    // them. Files are append-only, so deque references are stable.
    std::deque<File> files;
    Time plugFree = 0; ///< when the block-layer plug next idles
    Bytes nextLba = 0;
};

} // namespace vhive::storage

#endif // VHIVE_STORAGE_FILE_STORE_HH

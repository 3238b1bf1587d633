#include "storage/file_store.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vhive::storage {

FileStore::FileStore(sim::Simulation &sim, DiskDevice &disk,
                     IoPathParams params)
    : sim(sim), disk(disk), _params(params)
{
    VHIVE_ASSERT(_params.windowBytes >= kPageSize);
    VHIVE_ASSERT(_params.readPipelineDepth >= 1);
}

FileId
FileStore::createFile(const std::string &name, Bytes bytes)
{
    VHIVE_ASSERT(bytes >= 0);
    Bytes pages = pagesForBytes(bytes);
    File f;
    f.name = name;
    f.baseLba = nextLba;
    f.size = bytesForPages(pages);
    nextLba += f.size;
    files.push_back(std::move(f));
    return static_cast<FileId>(files.size() - 1);
}

FileId
FileStore::lookup(const std::string &name) const
{
    for (size_t i = 0; i < files.size(); ++i)
        if (files[i].name == name)
            return static_cast<FileId>(i);
    return kInvalidFile;
}

FileStore::File &
FileStore::get(FileId f)
{
    VHIVE_ASSERT(f >= 0 && static_cast<size_t>(f) < files.size());
    return files[static_cast<size_t>(f)];
}

const FileStore::File &
FileStore::get(FileId f) const
{
    VHIVE_ASSERT(f >= 0 && static_cast<size_t>(f) < files.size());
    return files[static_cast<size_t>(f)];
}

Bytes
FileStore::fileSize(FileId f) const
{
    return get(f).size;
}

const std::string &
FileStore::fileName(FileId f) const
{
    return get(f).name;
}

void
FileStore::truncate(FileId f, Bytes bytes)
{
    File &file = get(f);
    Bytes pages = pagesForBytes(bytes);
    if (bytesForPages(pages) > file.size) {
        // Reallocate the extent; simplified: old space is not reused.
        file.baseLba = nextLba;
        nextLba += bytesForPages(pages);
    }
    file.size = bytesForPages(pages);
    file.cached = PageSet();
}

bool
FileStore::isCached(FileId f, Bytes offset, Bytes len) const
{
    const File &file = get(f);
    Bytes first = offset / kPageSize;
    Bytes last = (offset + len - 1) / kPageSize;
    return first > last ||
           (file.cached.contains(first) &&
            file.cached.runEnd(first, last + 1) == last + 1);
}

void
FileStore::dropCaches()
{
    ++_stats.dropCacheCalls;
    for (auto &f : files)
        f.cached.clear();
}

void
FileStore::dropFileCaches(FileId f)
{
    get(f).cached.clear();
}

void
FileStore::dropFileCacheRange(FileId f, Bytes offset, Bytes len)
{
    File &file = get(f);
    if (len <= 0)
        return;
    Bytes first = offset / kPageSize;
    Bytes last = std::min<Bytes>((offset + len - 1) / kPageSize,
                                 file.size / kPageSize - 1);
    if (first <= last)
        file.cached.eraseRange(first, last - first + 1);
}

sim::Task<void>
FileStore::fetchWindow(FileId f, Bytes offset, Bytes len,
                       sim::Semaphore *pipeline)
{
    co_await pipeline->acquire();

    co_await passPlug(_params.preadMissPlug);

    co_await disk.read(get(f).baseLba + offset, len);

    // Insert into the cache.
    Bytes pages = pagesForBytes(len);
    get(f).cached.insertRange(offset / kPageSize, pages);
    co_await sim.delay(_params.perPageInsert * pages);

    pipeline->release();
}

sim::Task<void>
FileStore::readBuffered(FileId f, Bytes offset, Bytes len)
{
    File &file = get(f);
    VHIVE_ASSERT(offset >= 0 && len > 0 && offset + len <= file.size);

    co_await sim.delay(_params.syscall);

    // Coalesce missing pages into contiguous chunks of at most one
    // window each; fetch them with limited pipelining.
    struct Chunk { Bytes off; Bytes len; };
    std::vector<Chunk> chunks;
    Bytes first = offset / kPageSize;
    Bytes last = (offset + len - 1) / kPageSize;
    Bytes window_pages = _params.windowBytes / kPageSize;
    Bytes hit_pages = 0;
    for (Bytes p = first; p <= last;) {
        Bytes end = file.cached.runEnd(p, last + 1);
        if (file.cached.contains(p)) {
            hit_pages += end - p;
        } else {
            for (Bytes q = p; q < end; q += window_pages) {
                chunks.push_back(
                    {q * kPageSize,
                     std::min(window_pages, end - q) * kPageSize});
            }
        }
        p = end;
    }
    _stats.cacheHits += hit_pages;

    if (!chunks.empty()) {
        sim::Semaphore pipeline(sim, _params.readPipelineDepth);
        sim::Latch done(sim, 0);
        for (const Chunk &c : chunks) {
            _stats.cacheMisses += pagesForBytes(c.len);
            done.spawn(fetchWindow(f, c.off, c.len, &pipeline));
        }
        co_await done.wait();
    }

    // Copy out to the caller's buffer.
    co_await sim.delay(_params.perPageCopy * pagesForBytes(len));
}

sim::Task<void>
FileStore::readDirect(FileId f, Bytes offset, Bytes len)
{
    File &file = get(f);
    VHIVE_ASSERT(offset >= 0 && len > 0 && offset + len <= file.size);
    ++_stats.directReads;

    co_await sim.delay(_params.syscall +
                       _params.perPagePin * pagesForBytes(len));
    co_await disk.read(file.baseLba + offset, len);
}

sim::Task<void>
FileStore::faultRead(FileId f, Bytes offset, Bytes len)
{
    File &file = get(f);
    VHIVE_ASSERT(offset >= 0 && len > 0 && offset + len <= file.size);

    if (isCached(f, offset, len)) {
        // Minor fault: map the resident pages.
        co_await sim.delay(_params.minorFault * pagesForBytes(len));
        co_return;
    }

    ++_stats.faultMisses;

    // Readahead extension (HDD only by default): amortize the seek
    // over a larger window.
    if (_params.faultReadahead > 0) {
        Bytes extended = len + _params.faultReadahead;
        len = std::min(extended, file.size - offset);
    }
    _stats.cacheMisses += pagesForBytes(len);

    // Major fault: serialized fault-path work (page allocation,
    // fault-around, mmap_sem/page-table locking, block submission)...
    co_await passPlug(_params.faultMissPlug);

    // ...then the device read of the faulted range.
    co_await disk.read(file.baseLba + offset, len);

    Bytes pages = pagesForBytes(len);
    file.cached.insertRange(offset / kPageSize, pages);
    co_await sim.delay(_params.perPageInsert * pages);
}

sim::Task<void>
FileStore::writeBuffered(FileId f, Bytes offset, Bytes len)
{
    File &file = get(f);
    VHIVE_ASSERT(offset >= 0 && len > 0 && offset + len <= file.size);

    co_await sim.delay(_params.syscall +
                       _params.perPageCopy * pagesForBytes(len));
    file.cached.insertRange(offset / kPageSize, pagesForBytes(len));

    // Asynchronous writeback; completion is not on the caller's path.
    sim.spawn(disk.write(file.baseLba + offset, len));
}

sim::Task<void>
FileStore::writeDirect(FileId f, Bytes offset, Bytes len)
{
    File &file = get(f);
    VHIVE_ASSERT(offset >= 0 && len > 0 && offset + len <= file.size);
    co_await sim.delay(_params.syscall +
                       _params.perPagePin * pagesForBytes(len));
    co_await disk.write(file.baseLba + offset, len);
}

} // namespace vhive::storage

#include "mem/guest_memory.hh"

#include "util/logging.hh"

namespace vhive::mem {

GuestMemory::GuestMemory(sim::Simulation &sim, storage::FileStore &store,
                         std::int64_t total_pages)
    : sim(sim), store(store), present(total_pages),
      _totalPages(total_pages)
{
    VHIVE_ASSERT(total_pages > 0);
}

void
GuestMemory::backAnonymous()
{
    _mode = BackingMode::Anonymous;
    memoryFile = storage::kInvalidFile;
    uffd = nullptr;
}

void
GuestMemory::backLazyFile(storage::FileId memory_file)
{
    VHIVE_ASSERT(memory_file != storage::kInvalidFile);
    VHIVE_ASSERT(store.fileSize(memory_file) >=
                 bytesForPages(_totalPages));
    _mode = BackingMode::LazyFile;
    memoryFile = memory_file;
    uffd = nullptr;
    // Mapping a fresh region: nothing is present yet.
    present.clear();
}

void
GuestMemory::backUffd(storage::FileId memory_file, UserFaultFd *fd)
{
    VHIVE_ASSERT(memory_file != storage::kInvalidFile);
    VHIVE_ASSERT(fd != nullptr);
    _mode = BackingMode::Uffd;
    memoryFile = memory_file;
    uffd = fd;
    present.clear();
}

bool
GuestMemory::isPresent(std::int64_t page) const
{
    VHIVE_ASSERT(page >= 0 && page < _totalPages);
    return present.contains(page);
}

void
GuestMemory::installRange(std::int64_t page, std::int64_t n_pages)
{
    VHIVE_ASSERT(page >= 0 && page + n_pages <= _totalPages);
    _stats.pagesInstalledByMonitor += present.insertRange(page, n_pages);
}

sim::Task<void>
GuestMemory::touchMissing(std::int64_t page, std::int64_t n_pages)
{
    _stats.pagesTouched += n_pages;

    // Walk the run, splitting into present and missing subranges.
    std::int64_t p = page;
    const std::int64_t end = page + n_pages;
    while (p < end) {
        const std::int64_t q = present.runEnd(p, end);
        if (present.contains(p)) {
            _stats.minorFaults += q - p;
            co_await sim.delay(kPresentTouch * (q - p));
            p = q;
        } else {
            std::int64_t missing = q - p;
            ++_stats.majorFaults;
            switch (_mode) {
              case BackingMode::Anonymous:
                co_await faultAnonymous(p, missing);
                p = q;
                break;
              case BackingMode::LazyFile:
                co_await faultLazyFile(p, missing);
                p = q;
                break;
              case BackingMode::Uffd:
                // The monitor may install fewer pages than the whole
                // run; re-scan from p (at least one page is now
                // present, so the loop makes progress).
                co_await faultUffd(p, missing);
                break;
            }
        }
    }
}

sim::Task<void>
GuestMemory::faultAnonymous(std::int64_t page, std::int64_t n)
{
    co_await sim.delay(kZeroFillPerPage * n);
    present.insertRange(page, n);
}

sim::Task<void>
GuestMemory::faultLazyFile(std::int64_t page, std::int64_t n)
{
    // Kernel mmap fault path + disk read of the missing run. The file
    // offset equals the guest-physical offset (identity mapping of the
    // snapshot memory file).
    co_await store.faultRead(memoryFile, bytesForPages(page),
                             bytesForPages(n));
    present.insertRange(page, n);
}

sim::Task<void>
GuestMemory::faultUffd(std::int64_t page, std::int64_t n)
{
    VHIVE_ASSERT(uffd != nullptr);
    // The monitor is responsible for installing the pages (and calls
    // installRange); when raiseAndWait returns, the pages must be
    // present.
    co_await uffd->raiseAndWait(page, n);
    if (!present.contains(page))
        panic("uffd monitor woke faulting thread without installing "
              "page %lld", static_cast<long long>(page));
}

} // namespace vhive::mem

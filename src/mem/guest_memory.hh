/**
 * @file
 * Guest-physical memory of a MicroVM instance. Pages materialize on
 * first touch according to the backing mode:
 *
 *  - Anonymous:  fresh zero pages (boot-from-scratch path); cheap.
 *  - LazyFile:   mapped over the snapshot's guest memory file; first
 *                touch pays the kernel mmap fault path + a disk read
 *                (vanilla Firecracker snapshot restore, Sec. 2.3).
 *  - Uffd:       registered with a UserFaultFd; faults are delivered to
 *                a userspace monitor that installs content (REAP's
 *                record and prefetch phases, Sec. 5.2).
 *
 * Accesses are expressed as runs of contiguous pages (touchRun), which
 * is the granularity at which the vCPU trace engine walks guest memory
 * and at which kernel readahead/fault-around amortizes misses.
 */

#ifndef VHIVE_MEM_GUEST_MEMORY_HH
#define VHIVE_MEM_GUEST_MEMORY_HH

#include <cstdint>

#include "mem/uffd.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/file_store.hh"
#include "util/page_set.hh"
#include "util/units.hh"

namespace vhive::mem {

/** How guest pages materialize on first touch. */
enum class BackingMode
{
    Anonymous, ///< zero-fill on demand (cold boot)
    LazyFile,  ///< kernel lazy paging from the snapshot memory file
    Uffd,      ///< userspace fault handling via UserFaultFd
};

/** Guest-memory statistics for the experiments. */
struct GuestMemoryStats
{
    std::int64_t majorFaults = 0; ///< misses that needed content
    std::int64_t minorFaults = 0; ///< touches to already-present pages
    std::int64_t pagesTouched = 0;
    std::int64_t pagesInstalledByMonitor = 0;
};

/**
 * Guest-physical memory with page-granular presence tracking.
 */
class GuestMemory
{
  public:
    /**
     * @param sim         Simulation kernel.
     * @param store       File store holding the snapshot memory file.
     * @param total_pages VM memory size in pages (256 MB default VMs).
     */
    GuestMemory(sim::Simulation &sim, storage::FileStore &store,
                std::int64_t total_pages);

    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    /** Switch to anonymous zero-fill backing (cold boot). */
    void backAnonymous();

    /**
     * Map over the guest-memory snapshot file for kernel lazy paging.
     * Pages become non-present; file offset i maps to guest page i.
     */
    void backLazyFile(storage::FileId memory_file);

    /**
     * Register with a userfault fd: faults are delivered to the monitor
     * that owns @p uffd. Backing file is still needed by the monitor to
     * resolve content, but reads happen on the monitor's side.
     */
    void backUffd(storage::FileId memory_file, UserFaultFd *uffd);

    /**
     * Touch @p n_pages contiguous pages starting at @p page: the only
     * access path for vCPU execution. Present pages cost a TLB-ish
     * nothing; missing pages pay the backing-mode specific fault cost.
     */
    sim::Task<void> touchRun(std::int64_t page, std::int64_t n_pages);

    /**
     * Install pages without faulting (monitor/prefetcher side), e.g.
     * after UFFDIO_COPY. Counts toward footprint.
     */
    void installRange(std::int64_t page, std::int64_t n_pages);

    /** Whether a single page is present. */
    bool isPresent(std::int64_t page) const;

    /** Number of resident pages (the instance's memory footprint). */
    std::int64_t presentPages() const { return present.size(); }

    /** Total pages of guest memory. */
    std::int64_t totalPages() const { return _totalPages; }

    /** Backing file (kInvalidFile when anonymous). */
    storage::FileId backingFile() const { return memoryFile; }

    /** Current backing mode. */
    BackingMode mode() const { return _mode; }

    const GuestMemoryStats &stats() const { return _stats; }
    void resetStats() { _stats = GuestMemoryStats{}; }

  private:
    sim::Task<void> faultAnonymous(std::int64_t page, std::int64_t n);
    sim::Task<void> faultLazyFile(std::int64_t page, std::int64_t n);
    sim::Task<void> faultUffd(std::int64_t page, std::int64_t n);

    sim::Simulation &sim;
    storage::FileStore &store;
    PageSet present;
    std::int64_t _totalPages;
    BackingMode _mode = BackingMode::Anonymous;
    storage::FileId memoryFile = storage::kInvalidFile;
    UserFaultFd *uffd = nullptr;
    GuestMemoryStats _stats;

    /** Zero-fill fault cost per page (anonymous backing). */
    static constexpr Duration kZeroFillPerPage = usec(1);

    /** Cost of touching an already-present page run. */
    static constexpr Duration kPresentTouch = static_cast<Duration>(100);
};

} // namespace vhive::mem

#endif // VHIVE_MEM_GUEST_MEMORY_HH

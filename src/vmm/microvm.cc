#include "vmm/microvm.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vhive::vmm {

MicroVm::MicroVm(sim::Simulation &sim, storage::FileStore &store,
                 host::CpuPool &cpus,
                 const func::FunctionProfile &profile, VmmParams params)
    : sim(sim), store(store), cpus(cpus), _profile(profile),
      _params(params),
      guest(sim, store, pagesForBytes(profile.vmMemory)), conn(sim)
{
}

sim::Task<void>
MicroVm::bootFromScratch(const func::InvocationTrace &boot,
                         storage::FileId rootfs, Bytes rootfs_read)
{
    VHIVE_ASSERT(_state == VmState::Empty);
    co_await sim.delay(_params.spawnProcess);
    co_await sim.delay(_params.createVm);
    guest.backAnonymous();
    _state = VmState::Running;

    // Mounting the container image and loading the guest userspace
    // pulls a slice of the rootfs from disk. Interleave the reads
    // with the boot trace in a few chunks, as layers are opened.
    Bytes remaining_read = 0;
    Bytes chunk = 0;
    if (rootfs != storage::kInvalidFile && rootfs_read > 0) {
        remaining_read = std::min(rootfs_read, store.fileSize(rootfs));
        chunk = std::max<Bytes>(remaining_read / 8, kPageSize);
    }
    Bytes read_off = 0;
    size_t next_read_at = 0;
    const size_t stride =
        remaining_read > 0
            ? std::max<size_t>(boot.runs.size() / 8, 1)
            : boot.runs.size() + 1;

    for (size_t i = 0; i < boot.runs.size(); ++i) {
        if (remaining_read > 0 && i >= next_read_at) {
            Bytes this_chunk = std::min(chunk, remaining_read);
            co_await store.readBuffered(rootfs, read_off, this_chunk);
            read_off += this_chunk;
            remaining_read -= this_chunk;
            next_read_at = i + stride;
        }
        const auto &run = boot.runs[i];
        co_await guest.touchRun(run.page, run.pages);
        if (run.computeAfter > 0)
            co_await cpus.exec(run.computeAfter);
    }
    if (remaining_read > 0)
        co_await store.readBuffered(rootfs, read_off, remaining_read);
}

sim::Task<void>
MicroVm::createSnapshot(const SnapshotFiles &files)
{
    VHIVE_ASSERT(_state == VmState::Running);
    VHIVE_ASSERT(files.valid());
    VHIVE_ASSERT(store.fileSize(files.guestMemory) >=
                 bytesForPages(guest.totalPages()));
    _state = VmState::Paused;
    co_await sim.delay(_params.pauseVm);
    co_await cpus.exec(_params.serializeVmmState);
    co_await store.writeDirect(files.vmmState, 0,
                               _params.vmmStateSize);
    // Dump the full guest-physical memory image.
    co_await store.writeDirect(files.guestMemory, 0,
                               bytesForPages(guest.totalPages()));
    _state = VmState::Snapshotted;
}

sim::Task<void>
MicroVm::loadVmmState(const SnapshotFiles &files)
{
    VHIVE_ASSERT(_state == VmState::Empty);
    VHIVE_ASSERT(files.valid());
    co_await sim.delay(_params.spawnProcess);
    co_await store.readBuffered(files.vmmState, 0,
                                _params.vmmStateSize);
    co_await cpus.exec(_params.restoreVmmState);
    _state = VmState::VmmLoaded;
}

sim::Task<void>
MicroVm::resumeLazy(const SnapshotFiles &files)
{
    VHIVE_ASSERT(_state == VmState::VmmLoaded);
    guest.backLazyFile(files.guestMemory);
    co_await sim.delay(_params.resumeVcpus);
    _state = VmState::Running;
}

void
MicroVm::registerUffd(const SnapshotFiles &files,
                      mem::UserFaultFd *uffd)
{
    VHIVE_ASSERT(_state == VmState::VmmLoaded);
    VHIVE_ASSERT(uffd != nullptr);
    guest.backUffd(files.guestMemory, uffd);
}

sim::Task<void>
MicroVm::resumeVcpus()
{
    VHIVE_ASSERT(_state == VmState::VmmLoaded);
    VHIVE_ASSERT(guest.mode() == mem::BackingMode::Uffd);
    co_await sim.delay(_params.resumeVcpus);
    // Inject the first fault at the first byte of guest memory so the
    // monitor can derive file offsets for all later faults.
    co_await guest.touchRun(0, 1);
    _state = VmState::Running;
}

sim::Task<InvocationBreakdown>
MicroVm::serveInvocation(const func::InvocationTrace &trace,
                         net::ObjectStore *input_store)
{
    VHIVE_ASSERT(_state == VmState::Running);
    InvocationBreakdown bd;
    const auto faults0 = guest.stats().majorFaults;
    const auto minor0 = guest.stats().minorFaults;

    // Connection restoration: wire handshake plus the guest-side page
    // faults of the network stack and agents (Sec. 4.2).
    Time t0 = sim.now();
    if (!conn.established()) {
        co_await conn.restoreSession();
        for (const auto &run : trace.runs) {
            if (run.phase != func::Phase::ConnectionRestore)
                continue;
            co_await guest.touchRun(run.page, run.pages);
            if (run.computeAfter > 0)
                co_await cpus.exec(run.computeAfter);
        }
    }
    bd.connRestore = sim.now() - t0;

    // Function processing: deliver the request, fetch the input (if
    // any), execute the trace, return the response.
    Time t1 = sim.now();
    co_await conn.sendRequest();
    if (input_store != nullptr && _profile.inputSize > 0)
        co_await input_store->get(_profile.inputSize);
    for (const auto &run : trace.runs) {
        if (run.phase != func::Phase::Processing)
            continue;
        co_await guest.touchRun(run.page, run.pages);
        if (run.computeAfter > 0)
            co_await cpus.exec(run.computeAfter);
    }
    co_await conn.sendResponse();
    bd.processing = sim.now() - t1;

    bd.majorFaults = guest.stats().majorFaults - faults0;
    bd.minorFaults = guest.stats().minorFaults - minor0;
    co_return bd;
}

} // namespace vhive::vmm

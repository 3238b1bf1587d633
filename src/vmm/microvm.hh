/**
 * @file
 * A Firecracker-like MicroVM running one serverless function (Sec. 2.2,
 * 3.2). Supports cold boot from a root filesystem, snapshot creation,
 * and two-phase snapshot restore with either kernel lazy paging or
 * userfaultfd-delegated paging (the hook REAP uses, Sec. 5.2).
 *
 * The vCPU executes function invocations as access traces: runs of
 * guest pages interleaved with compute. All latency effects of cold
 * starts emerge from the backing mode of the guest memory.
 */

#ifndef VHIVE_VMM_MICROVM_HH
#define VHIVE_VMM_MICROVM_HH

#include <memory>
#include <string>

#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "host/cpu_pool.hh"
#include "mem/guest_memory.hh"
#include "mem/uffd.hh"
#include "net/object_store.hh"
#include "net/rpc.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/file_store.hh"
#include "vmm/snapshot.hh"

namespace vhive::vmm {

/** MicroVM lifecycle states. */
enum class VmState
{
    Empty,      ///< process not started
    VmmLoaded,  ///< VMM/device state restored; memory not mapped yet
    Running,    ///< booted or restored; serving invocations
    Paused,     ///< paused for snapshotting
    Snapshotted ///< state captured; instance may be discarded
};

/** Per-invocation latency decomposition (matches Fig. 2's stacking). */
struct InvocationBreakdown
{
    Duration connRestore = 0; ///< gRPC session + guest infra faults
    Duration processing = 0;  ///< function execution incl. faults
    std::int64_t majorFaults = 0;
    std::int64_t minorFaults = 0;

    Duration total() const { return connRestore + processing; }
};

/**
 * One MicroVM instance bound to a function profile.
 */
class MicroVm
{
  public:
    /**
     * @param sim    Simulation kernel.
     * @param store  File store with snapshot files.
     * @param cpus   Host CPU pool for guest compute.
     * @param profile Function model this VM runs.
     * @param params Hypervisor cost constants.
     */
    MicroVm(sim::Simulation &sim, storage::FileStore &store,
            host::CpuPool &cpus, const func::FunctionProfile &profile,
            VmmParams params = VmmParams{});

    MicroVm(const MicroVm &) = delete;
    MicroVm &operator=(const MicroVm &) = delete;

    /**
     * Cold boot: create the VM (mounting the containerized rootfs via
     * device-mapper), boot the guest kernel and agents, and run
     * user-code initialization, touching the boot trace's pages in
     * anonymous memory. When @p rootfs is valid, boot also reads
     * @p rootfs_read bytes of the image from disk (kernel modules,
     * agents, interpreter, site-packages).
     */
    sim::Task<void>
    bootFromScratch(const func::InvocationTrace &boot,
                    storage::FileId rootfs = storage::kInvalidFile,
                    Bytes rootfs_read = 0);

    /**
     * Capture a snapshot into @p files (which must be pre-created with
     * the right sizes): pause, serialize VMM state, dump guest memory.
     */
    sim::Task<void> createSnapshot(const SnapshotFiles &files);

    /**
     * Phase one of restore: spawn the hypervisor, read and deserialize
     * the VMM/device state. Guest memory is not touched yet.
     */
    sim::Task<void> loadVmmState(const SnapshotFiles &files);

    /**
     * Phase two: map guest memory for kernel lazy paging and resume
     * vCPUs (vanilla Firecracker snapshots, Sec. 2.3).
     */
    sim::Task<void> resumeLazy(const SnapshotFiles &files);

    /**
     * Phase two, REAP flavor: register guest memory with @p uffd so a
     * monitor serves the faults, without resuming, so the
     * orchestrator can eagerly install the working set before the
     * vCPUs run (Sec. 5.2.2).
     */
    void registerUffd(const SnapshotFiles &files,
                      mem::UserFaultFd *uffd);

    /**
     * Resume vCPUs after registerUffd() (and any eager installs),
     * injecting the first fault at the first byte of guest memory so
     * the monitor learns the mapping base (Sec. 5.2.1).
     */
    sim::Task<void> resumeVcpus();

    /**
     * Serve one invocation: restore the gRPC session if needed (guest
     * infra pages fault here), optionally fetch the input from the
     * object store, then execute the trace.
     *
     * @return the latency breakdown observed at the VM boundary.
     */
    sim::Task<InvocationBreakdown>
    serveInvocation(const func::InvocationTrace &trace,
                    net::ObjectStore *input_store);

    /** Resident footprint: guest pages + hypervisor overhead (Fig 4). */
    Bytes
    footprint() const
    {
        return bytesForPages(guest.presentPages()) +
               _params.vmmOverhead;
    }

    VmState state() const { return _state; }
    mem::GuestMemory &guestMemory() { return guest; }
    net::RpcConnection &connection() { return conn; }
    const func::FunctionProfile &profile() const { return _profile; }

  private:
    sim::Simulation &sim;
    storage::FileStore &store;
    host::CpuPool &cpus;
    const func::FunctionProfile &_profile;
    VmmParams _params;
    mem::GuestMemory guest;
    net::RpcConnection conn;
    VmState _state = VmState::Empty;
};

} // namespace vhive::vmm

#endif // VHIVE_VMM_MICROVM_HH

/**
 * @file
 * MicroVM lifecycle tests: boot, snapshot, two-phase restore, and
 * invocation serving under each memory backing mode.
 */

#include <gtest/gtest.h>

#include "func/profile.hh"
#include "func/trace_gen.hh"
#include "host/cpu_pool.hh"
#include "mem/uffd.hh"
#include "net/object_store.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "storage/disk.hh"
#include "storage/file_store.hh"
#include "util/units.hh"
#include "vmm/microvm.hh"
#include "vmm/snapshot.hh"

namespace vhive::vmm {
namespace {

using sim::Simulation;
using sim::Task;

struct Fixture {
    Simulation sim;
    storage::DiskDevice ssd{sim, storage::DiskParams::ssd()};
    storage::FileStore fs{sim, ssd};
    host::CpuPool cpus{sim, 48};
    func::TraceGenerator gen{0xf00d};

    SnapshotFiles
    makeSnapshotFiles(const func::FunctionProfile &p)
    {
        SnapshotFiles files;
        files.vmmState =
            fs.createFile(p.name + "/vmm_state", VmmParams{}.vmmStateSize);
        files.guestMemory =
            fs.createFile(p.name + "/guest_mem", p.vmMemory);
        return files;
    }
};

TEST(MicroVm, BootTouchesFootprintPages)
{
    Fixture fx;
    const auto &p = func::profileByName("helloworld");
    MicroVm vm(fx.sim, fx.fs, fx.cpus, p);
    struct T {
        static Task<void>
        run(Fixture &fx, MicroVm &vm, const func::FunctionProfile &p,
            Duration &out)
        {
            Time t0 = fx.sim.now();
            co_await vm.bootFromScratch(fx.gen.boot(p));
            out = fx.sim.now() - t0;
        }
    };
    Duration boot_time = 0;
    fx.sim.spawn(T::run(fx, vm, p, boot_time));
    fx.sim.run();
    EXPECT_EQ(vm.state(), VmState::Running);
    // Fig. 4 blue bar: footprint ~= boot footprint (+3 MB VMM).
    EXPECT_NEAR(toMiB(vm.footprint()), toMiB(p.bootFootprint) + 3.0,
                4.0);
    // Sec. 2.2: boot within production frameworks takes 700-1300 ms
    // plus user init.
    EXPECT_GT(boot_time, msec(700));
    EXPECT_LT(boot_time, msec(2500));
}

TEST(MicroVm, SnapshotCapturesAndTransitions)
{
    Fixture fx;
    const auto &p = func::profileByName("helloworld");
    MicroVm vm(fx.sim, fx.fs, fx.cpus, p);
    auto files = fx.makeSnapshotFiles(p);
    struct T {
        static Task<void>
        run(Fixture &fx, MicroVm &vm, const func::FunctionProfile &p,
            SnapshotFiles files)
        {
            co_await vm.bootFromScratch(fx.gen.boot(p));
            co_await vm.createSnapshot(files);
        }
    };
    fx.sim.spawn(T::run(fx, vm, p, files));
    fx.sim.run();
    EXPECT_EQ(vm.state(), VmState::Snapshotted);
    // The full 256 MB memory image plus VMM state landed on disk.
    EXPECT_GE(fx.ssd.stats().bytesWritten, p.vmMemory);
}

/** Boot + snapshot a function, returning the files. */
Task<void>
prepareSnapshot(Fixture &fx, const func::FunctionProfile &p,
                SnapshotFiles files)
{
    auto vm = std::make_unique<MicroVm>(fx.sim, fx.fs, fx.cpus, p);
    co_await vm->bootFromScratch(fx.gen.boot(p));
    co_await vm->createSnapshot(files);
}

TEST(MicroVm, LazyRestoreServesInvocationSlowly)
{
    Fixture fx;
    const auto &p = func::profileByName("helloworld");
    auto files = fx.makeSnapshotFiles(p);

    struct T {
        static Task<void>
        run(Fixture &fx, const func::FunctionProfile &p,
            SnapshotFiles files, Duration &load_vmm,
            InvocationBreakdown &bd, Bytes &fp)
        {
            co_await prepareSnapshot(fx, p, files);
            fx.fs.dropCaches(); // cold invocation methodology, Sec. 4.1

            MicroVm vm(fx.sim, fx.fs, fx.cpus, p);
            Time t0 = fx.sim.now();
            co_await vm.loadVmmState(files);
            co_await vm.resumeLazy(files);
            load_vmm = fx.sim.now() - t0;
            bd = co_await vm.serveInvocation(fx.gen.invocation(p, 0),
                                             nullptr);
            fp = vm.footprint();
        }
    };
    Duration load_vmm = 0;
    InvocationBreakdown bd;
    Bytes fp = 0;
    fx.sim.spawn(T::run(fx, p, files, load_vmm, bd, fp));
    fx.sim.run();

    // Load VMM: tens of ms (Fig. 2 breakdown).
    EXPECT_GT(load_vmm, msec(15));
    EXPECT_LT(load_vmm, msec(60));
    // Connection restoration includes infra-page faults: >> handshake.
    EXPECT_GT(bd.connRestore, msec(50));
    // Cold processing is orders of magnitude above the 1 ms warm time.
    EXPECT_GT(bd.processing, msec(30));
    EXPECT_GT(bd.majorFaults, 0);
    // Fig. 4 red bar: restored footprint ~= working set, far below
    // the boot footprint.
    EXPECT_LT(fp, 20 * kMiB);
    EXPECT_GT(fp, 8 * kMiB);
}

TEST(MicroVm, WarmInvocationIsFast)
{
    Fixture fx;
    const auto &p = func::profileByName("helloworld");
    auto files = fx.makeSnapshotFiles(p);
    struct T {
        static Task<void>
        run(Fixture &fx, const func::FunctionProfile &p,
            SnapshotFiles files, InvocationBreakdown &cold,
            InvocationBreakdown &warm)
        {
            co_await prepareSnapshot(fx, p, files);
            fx.fs.dropCaches();
            MicroVm vm(fx.sim, fx.fs, fx.cpus, p);
            co_await vm.loadVmmState(files);
            co_await vm.resumeLazy(files);
            cold = co_await vm.serveInvocation(fx.gen.invocation(p, 0),
                                               nullptr);
            warm = co_await vm.serveInvocation(fx.gen.invocation(p, 1),
                                               nullptr);
        }
    };
    InvocationBreakdown cold, warm;
    fx.sim.spawn(T::run(fx, p, files, cold, warm));
    fx.sim.run();
    // Warm: established connection, resident pages.
    EXPECT_EQ(warm.connRestore, 0);
    EXPECT_LT(warm.processing, msec(5));
    // One-to-two orders of magnitude gap (Sec. 4.2).
    EXPECT_GT(cold.total(), 20 * warm.total());
}

TEST(MicroVm, UffdRestoreDeliversFaultsToMonitor)
{
    Fixture fx;
    const auto &p = func::profileByName("helloworld");
    auto files = fx.makeSnapshotFiles(p);

    struct Monitor {
        /** Record-style monitor serving faults from the memory file. */
        static Task<void>
        run(Fixture &fx, MicroVm &vm, mem::UserFaultFd &uffd,
            storage::FileId mem_file, bool &saw_first_byte)
        {
            while (true) {
                mem::FaultEvent ev = co_await uffd.nextFault();
                if (ev.page < 0)
                    break; // sentinel: shut down
                if (ev.page == 0)
                    saw_first_byte = true;
                co_await fx.fs.readBuffered(mem_file,
                                            bytesForPages(ev.page),
                                            bytesForPages(ev.runPages));
                co_await uffd.copyCost(ev.runPages, 0);
                vm.guestMemory().installRange(ev.page, ev.runPages);
                ev.done->openGate();
            }
        }
    };
    struct T {
        static Task<void>
        run(Fixture &fx, const func::FunctionProfile &p,
            SnapshotFiles files, mem::UserFaultFd &uffd,
            InvocationBreakdown &bd, bool &saw_first_byte)
        {
            co_await prepareSnapshot(fx, p, files);
            fx.fs.dropCaches();
            MicroVm vm(fx.sim, fx.fs, fx.cpus, p);
            fx.sim.spawn(Monitor::run(fx, vm, uffd, files.guestMemory,
                                      saw_first_byte));
            co_await vm.loadVmmState(files);
            vm.registerUffd(files, &uffd);
            co_await vm.resumeVcpus();
            bd = co_await vm.serveInvocation(fx.gen.invocation(p, 0),
                                             nullptr);
            // Stop the monitor.
            uffd.sendShutdown();
        }
    };
    mem::UserFaultFd uffd(fx.sim);
    InvocationBreakdown bd;
    bool saw_first_byte = false;
    fx.sim.spawn(T::run(fx, p, files, uffd, bd, saw_first_byte));
    fx.sim.run();
    EXPECT_TRUE(saw_first_byte);
    EXPECT_GT(uffd.stats().faultsDelivered, 100);
    EXPECT_GT(bd.processing, msec(10));
}

TEST(MicroVm, InputFetchedFromObjectStore)
{
    Fixture fx;
    net::ObjectStore s3(fx.sim);
    const auto &p = func::profileByName("image_rotate");
    auto files = fx.makeSnapshotFiles(p);
    struct T {
        static Task<void>
        run(Fixture &fx, const func::FunctionProfile &p,
            SnapshotFiles files, net::ObjectStore &s3)
        {
            co_await prepareSnapshot(fx, p, files);
            fx.fs.dropCaches();
            MicroVm vm(fx.sim, fx.fs, fx.cpus, p);
            co_await vm.loadVmmState(files);
            co_await vm.resumeLazy(files);
            (void)co_await vm.serveInvocation(
                fx.gen.invocation(p, 0), &s3);
        }
    };
    fx.sim.spawn(T::run(fx, p, files, s3));
    fx.sim.run();
    EXPECT_EQ(s3.stats().gets, 1);
    EXPECT_EQ(s3.stats().bytesServed, p.inputSize);
}

} // namespace
} // namespace vhive::vmm

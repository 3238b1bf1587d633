/**
 * @file
 * Sec. 5.2.3 / 6.1: fio-like characterization of the snapshot storage
 * device. The paper's platform numbers: a single 4 KB read extracts
 * ~32 MB/s; 16 concurrent 4 KB reads ~360 MB/s; peak ~850 MB/s for
 * large reads; and an 8+ MB O_DIRECT read is ~2x faster end-to-end
 * than the same read through the page cache (533 vs 275 MB/s).
 */

#include <cstdio>
#include <vector>

#include "bench/common.hh"
#include "sim/sync.hh"
#include "storage/disk.hh"
#include "storage/file_store.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace vhive;

namespace {

sim::Task<void>
qdWorker(storage::DiskDevice &dev, int reads, Bytes base)
{
    for (int i = 0; i < reads; ++i)
        co_await dev.read(base + static_cast<Bytes>(i) * 64 * kKiB,
                          4 * kKiB);
}

double
randomThroughput(const storage::DiskParams &params, int depth)
{
    sim::Simulation sim;
    storage::DiskDevice dev(sim, params);
    const int reads = 300;
    sim::Latch done(sim, 0);
    for (int i = 0; i < depth; ++i)
        done.spawn(qdWorker(dev, reads, static_cast<Bytes>(i) * kGiB));
    Time end = sim.run();
    return mbps(static_cast<Bytes>(depth) * reads * 4 * kKiB, end);
}

double
sequentialThroughput(const storage::DiskParams &params, Bytes size)
{
    sim::Simulation sim;
    storage::DiskDevice dev(sim, params);
    Duration took = 0;
    struct T {
        static sim::Task<void>
        run(sim::Simulation &sim, storage::DiskDevice &dev, Bytes size,
            Duration &out)
        {
            Time t0 = sim.now();
            co_await dev.read(0, size);
            out = sim.now() - t0;
        }
    };
    sim.spawn(T::run(sim, dev, size, took));
    sim.run();
    return mbps(size, took);
}

double
fileReadThroughput(bool direct, Bytes size)
{
    sim::Simulation sim;
    storage::DiskDevice dev(sim, storage::DiskParams::ssd());
    storage::FileStore fs(sim, dev);
    auto f = fs.createFile("blob", size);
    Duration took = 0;
    struct T {
        static sim::Task<void>
        run(sim::Simulation &sim, storage::FileStore &fs,
            storage::FileId f, bool direct, Bytes size, Duration &out)
        {
            Time t0 = sim.now();
            if (direct)
                co_await fs.readDirect(f, 0, size);
            else
                co_await fs.readBuffered(f, 0, size);
            out = sim.now() - t0;
        }
    };
    sim.spawn(T::run(sim, fs, f, direct, size, took));
    sim.run();
    return mbps(size, took);
}

} // namespace

int
main()
{
    bench::banner("Sec. 5.2.3: device bandwidth envelope (fio-like)");

    auto ssd = storage::DiskParams::ssd();
    auto hdd = storage::DiskParams::hdd();

    {
        Table t({"queue_depth", "ssd_4k_MB/s", "paper"});
        struct Ref { int qd; const char *paper; };
        const Ref refs[] = {{1, "32"}, {2, "-"}, {4, "-"}, {8, "-"},
                            {16, "360"}, {32, "-"}, {64, "-"}};
        for (const auto &r : refs) {
            t.row()
                .cell(static_cast<std::int64_t>(r.qd))
                .cell(randomThroughput(ssd, r.qd), 0)
                .cell(r.paper);
        }
        t.print();
    }

    {
        std::printf("\n");
        Table t({"sequential_read", "ssd_MB/s", "hdd_MB/s"});
        for (Bytes size : {128 * kKiB, 1 * kMiB, 8 * kMiB, 64 * kMiB}) {
            t.row()
                .cell(std::to_string(size / kKiB) + " KiB")
                .cell(sequentialThroughput(ssd, size), 0)
                .cell(sequentialThroughput(hdd, size), 0);
        }
        t.print();
        std::printf("(paper peak: ~850 MB/s on the SATA3 SSD)\n");
    }

    {
        std::printf("\n");
        Table t({"8MiB_file_read", "MB/s", "paper_MB/s"});
        t.row()
            .cell("buffered (page cache)")
            .cell(fileReadThroughput(false, 8 * kMiB), 0)
            .cell("275");
        t.row()
            .cell("O_DIRECT")
            .cell(fileReadThroughput(true, 8 * kMiB), 0)
            .cell("533");
        t.print();
    }

    {
        std::printf("\n");
        Table t({"hdd_random_4k", "latency_ms", "MB/s"});
        sim::Simulation sim;
        storage::DiskDevice dev(sim, hdd);
        Duration took = 0;
        struct T {
            static sim::Task<void>
            run(sim::Simulation &sim, storage::DiskDevice &dev,
                Duration &out)
            {
                Time t0 = sim.now();
                co_await dev.read(5 * kGiB, 4 * kKiB);
                out = sim.now() - t0;
            }
        };
        sim.spawn(T::run(sim, dev, took));
        sim.run();
        t.row()
            .cell("single read")
            .cell(toMs(took), 2)
            .cell(mbps(4 * kKiB, took), 2);
        t.print();
    }
    return 0;
}

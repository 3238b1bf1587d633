#include "storage/disk.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vhive::storage {

namespace {

Duration
transferTime(Bytes bytes, double bw_bytes_per_sec)
{
    return static_cast<Duration>(static_cast<double>(bytes) /
                                 bw_bytes_per_sec * 1e9);
}

} // namespace

DiskParams
DiskParams::ssd()
{
    DiskParams p;
    p.name = "sata3-ssd";
    p.controllerFixed = usec(8);
    p.controllerBw = 1e9;     // SATA3 interface ceiling
    p.channels = 16;
    p.channelLatency = usec(70);
    p.channelBw = 100e6;
    p.stripeBytes = 128 * kKiB;
    p.seekLatency = 0;
    return p;
}

DiskParams
DiskParams::hdd()
{
    DiskParams p;
    p.name = "sata3-hdd-7200rpm";
    p.controllerFixed = usec(8);
    p.controllerBw = 1e9;
    p.channels = 1;           // a single actuator arm
    p.channelLatency = usec(50);
    p.channelBw = 150e6;      // outer-track streaming rate
    p.stripeBytes = 128 * kKiB;
    p.seekLatency = msec(6);  // avg seek + rotational delay
    return p;
}

DiskParams
DiskParams::remoteStorage()
{
    DiskParams p;
    p.name = "remote-disaggregated";
    // Serialized NIC/submission stage; transfers share a 10 GbE link.
    p.controllerFixed = usec(15);
    p.controllerBw = 1.17e9;
    // Parallel service-side streams, each dominated by the network
    // round trip plus the service's own storage access.
    p.channels = 8;
    p.channelLatency = usec(350);
    p.channelBw = 150e6;
    p.stripeBytes = 128 * kKiB;
    p.seekLatency = 0;
    return p;
}

DiskDevice::DiskDevice(sim::Simulation &sim, DiskParams params)
    : sim(sim), _params(std::move(params))
{
    VHIVE_ASSERT(_params.channels >= 1);
    VHIVE_ASSERT(_params.stripeBytes >= kPageSize);
    channelFree.assign(static_cast<size_t>(_params.channels), 0);
}

sim::Task<void>
DiskDevice::read(Bytes lba, Bytes bytes)
{
    _stats.bytesRead += bytes;
    return transfer(lba, bytes);
}

sim::Task<void>
DiskDevice::write(Bytes lba, Bytes bytes)
{
    _stats.bytesWritten += bytes;
    return transfer(lba, bytes);
}

sim::Task<void>
DiskDevice::transfer(Bytes lba, Bytes bytes)
{
    VHIVE_ASSERT(lba >= 0 && bytes > 0);
    ++_stats.requests;

    // Book each stripe in arrival order: start = max(arrival, stage
    // free) at the controller, then on the channel that idles first.
    Time done = sim.now();
    for (Bytes off = 0; off < bytes; off += _params.stripeBytes) {
        Bytes chunk = std::min<Bytes>(_params.stripeBytes, bytes - off);
        ++_stats.subRequests;

        // Stage 1: serialized controller / host-interface submission.
        controllerFree = std::max(controllerFree, sim.now()) +
                         _params.controllerFixed +
                         transferTime(chunk, _params.controllerBw);

        // Stage 2: media access on one of the parallel channels.
        Duration media = _params.channelLatency +
                         transferTime(chunk, _params.channelBw);
        if (_params.seekLatency > 0 && lba + off != lastEndLba) {
            media += _params.seekLatency;
            ++_stats.seeks;
        }
        lastEndLba = lba + off + chunk;
        Time &channel =
            *std::min_element(channelFree.begin(), channelFree.end());
        channel = std::max(channel, controllerFree) + media;
        done = std::max(done, channel);
    }
    co_await sim.delay(done - sim.now());
}

} // namespace vhive::storage

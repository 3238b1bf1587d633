/**
 * @file
 * Block-device queueing model. A device is a serialized controller stage
 * (per-request fixed cost + transfer at the interface rate) feeding a
 * bank of parallel channels (per-request access latency + transfer at
 * the media rate). Large requests are striped across channels, so the
 * model naturally yields the envelope the paper reports for its SATA3
 * SSD (Sec. 5.2.3): ~32 MB/s for one outstanding 4 KB read, ~360 MB/s at
 * queue depth 16, and ~850 MB/s for large sequential reads. An HDD is
 * the same model with one channel plus a seek penalty on discontiguous
 * access.
 *
 * Both stages are FIFO queues whose service time is known when a
 * request arrives, so the device keeps no waiting tasks: it holds the
 * time at which the controller and each channel next go idle, books
 * every stripe on arrival (start = max(arrival, stage free), Lindley's
 * recursion; a channel stripe takes the channel that idles first) and
 * wakes the caller once, when its last stripe lands.
 */

#ifndef VHIVE_STORAGE_DISK_HH
#define VHIVE_STORAGE_DISK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/task.hh"
#include "util/units.hh"

namespace vhive::storage {

/** Calibration constants for a DiskDevice. */
struct DiskParams
{
    std::string name;

    /** Serialized per-request controller/submission cost. */
    Duration controllerFixed = usec(8);

    /** Interface transfer rate through the controller (bytes/sec). */
    double controllerBw = 1e9;

    /** Number of independent internal channels (dies / platters). */
    int channels = 16;

    /** Per-request media access latency on a channel. */
    Duration channelLatency = usec(70);

    /** Per-channel media streaming rate (bytes/sec). */
    double channelBw = 100e6;

    /** Requests larger than this are striped into sub-requests. */
    Bytes stripeBytes = 128 * kKiB;

    /**
     * Seek penalty applied when a request does not start where the
     * previous one ended (HDD only; zero for SSDs).
     */
    Duration seekLatency = 0;

    /** The paper's Intel 200 GB SATA3 SSD. */
    static DiskParams ssd();

    /** The paper's WD 2 TB 7200 RPM SATA3 HDD (Sec. 6.3). */
    static DiskParams hdd();

    /**
     * Disaggregated storage service over the datacenter network
     * (Sec. 2.3 / 7.1: snapshots may live in S3/EBS-style remote
     * storage). Requests pay a network round trip and share a 10 GbE
     * link; REAP's single-read prefetch amortizes both far better
     * than per-fault access.
     */
    static DiskParams remoteStorage();
};

/** Running device statistics, readable by tests and benchmarks. */
struct DiskStats
{
    std::int64_t requests = 0;
    std::int64_t subRequests = 0;
    Bytes bytesRead = 0;
    Bytes bytesWritten = 0;
    std::int64_t seeks = 0;
};

/**
 * A simulated block device. All I/O flows through read()/write(), which
 * complete when the last byte has transferred. Concurrent requests
 * contend for the controller and channel resources, reproducing
 * queue-depth-dependent throughput.
 */
class DiskDevice
{
  public:
    DiskDevice(sim::Simulation &sim, DiskParams params);

    DiskDevice(const DiskDevice &) = delete;
    DiskDevice &operator=(const DiskDevice &) = delete;

    /** Read @p bytes starting at logical block address @p lba. */
    sim::Task<void> read(Bytes lba, Bytes bytes);

    /** Write @p bytes starting at @p lba. Same service model as read. */
    sim::Task<void> write(Bytes lba, Bytes bytes);

    const DiskParams &params() const { return _params; }
    const DiskStats &stats() const { return _stats; }

    /** Reset statistics (e.g. between benchmark phases). */
    void resetStats() { _stats = DiskStats{}; }

  private:
    sim::Task<void> transfer(Bytes lba, Bytes bytes);

    sim::Simulation &sim;
    DiskParams _params;
    DiskStats _stats;
    Time controllerFree = 0;        ///< when the controller next idles
    std::vector<Time> channelFree;  ///< when each channel next idles
    Bytes lastEndLba = -1;
};

} // namespace vhive::storage

#endif // VHIVE_STORAGE_DISK_HH

#include "core/worker.hh"

namespace vhive::core {

namespace {

/** Seek-heavy devices get kernel fault-path readahead (Sec. 6.3). */
storage::IoPathParams
ioForDisk(const WorkerConfig &cfg)
{
    storage::IoPathParams io = cfg.io;
    if (cfg.disk.seekLatency > 0 && io.faultReadahead == 0)
        io.faultReadahead = 48 * kKiB;
    return io;
}

} // namespace

Worker::Worker(sim::Simulation &sim, WorkerConfig config,
               net::ArtifactStore *shared_store)
    : sim(sim), cfg(config), _disk(sim, cfg.disk),
      fs(sim, _disk, ioForDisk(cfg)),
      _hostCpus(sim, cfg.hostCores),
      _orchCpus(sim, cfg.orchestratorThreads), s3(sim, cfg.objectStore),
      artifacts(shared_store != nullptr ? shared_store : &s3),
      gen(cfg.seed),
      orch(sim, fs, _hostCpus, _orchCpus, s3, *artifacts, gen, cfg.vmm,
           cfg.reap, cfg.uffd, cfg.instanceMemoryCapacity)
{
}

} // namespace vhive::core

#!/usr/bin/env python3
"""Gate the fleet bench's peak resident memory against a ceiling.

Usage: check_peak_rss.py <path/to/bench_fleet_cold_p99>

Runs the bench at the perf-smoke job's settings (at most 4 workers in
Parts 1-2, at most 4 sim threads; the 64-worker sharded-store cells
always run), with its stdout discarded, and reads the child's peak
resident set from getrusage(RUSAGE_CHILDREN).ru_maxrss. The bench's
largest fleet holds one working-set record per function and the
page-cache bits of every file each worker has read: a per-worker copy
of state that should be shared fleet-wide shows up here as memory
growing with the worker count. Its sweep builds many fleets, each
with fresh pool threads, so memory that an exited thread keeps to
itself shows up here too.

CEILING_MIB is 1.5x the highest peak measured when it was set:
43.1-48.2 MiB over twelve runs of a Release build on a 4-vCPU x86-64
Linux VM, with every coroutine frame taken from the global allocator
(eleven of the twelve at 43.1-45.1). With frames from a slab pool
whose slabs one process-wide depot shared between sim threads, the
same bench peaked at 51.3-52.1 MiB in five runs on the same host
(51.5-55.0 MiB when that pool was measured). With a four-level event
queue, whose Simulation embedded a 4096-slot timing wheel of empty
vectors in every sim domain, it peaked at 65.2-71.6 MiB. Before frame
slabs were shared between sim threads it peaked at 108-109 MiB,
because every pool thread kept its own never-reused slabs; and before
working-set records and page-cache bits were shared fleet-wide it
peaked at 267-287 MiB, with every worker holding its own copy of each
record and a page-cache bitmap sized to every file it created. The
margin lets allocator and libc differences between hosts pass, while a
return of per-thread frame stocks or per-worker copies does not; fixed
per-Simulation arrays are caught by test_sim's size check instead. The
ceiling lives here, not in perf_floor.json, whose bench -> cell map
check_perf_floor.py reads as events/sec rows.

Exit codes: 0 within the ceiling, 1 above it, 2 the bench could not
run or failed.
"""

import os
import resource
import subprocess
import sys

CEILING_MIB = 72.3

SETTINGS = {
    "VHIVE_FLEET_MAX_WORKERS": "4",
    "VHIVE_FLEET_MAX_THREADS": "4",
}


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip())
        return 2
    bench = sys.argv[1]
    env = {k: v for k, v in os.environ.items()
           if k != "VHIVE_BENCH_JSON"}
    env.update(SETTINGS)
    try:
        done = subprocess.run([bench], env=env,
                              stdout=subprocess.DEVNULL)
    except OSError as e:
        print(f"error: cannot run {bench}: {e.strerror}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print(f"error: {bench} exited {done.returncode}", file=sys.stderr)
        return 2
    # Linux reports ru_maxrss in KiB.
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    verdict = "ok" if peak_mib <= CEILING_MIB else "FAIL"
    print(f"{verdict}: bench_fleet_cold_p99 peak RSS {peak_mib:.1f} MiB, "
          f"ceiling {CEILING_MIB:.1f} MiB")
    return 0 if peak_mib <= CEILING_MIB else 1


if __name__ == "__main__":
    sys.exit(main())

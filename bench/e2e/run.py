#!/usr/bin/env python3
"""End-to-end benchmark of the snapshot simulator.

Builds bench_e2e from the checkout it sits in, runs each workload in its
own process, checks the results, prints every metric as
`workload metric value unit` and, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics.

    python3 bench/e2e/run.py [--workload NAME|all] [--seed S]
                             [--seconds 25] [--trace 0|1]
                             [--out FILE [--append]]
    python3 bench/e2e/run.py --write-benchmark-json

Untraced (--trace 0) runs report the end-to-end metrics; a traced run
(--trace 1) reports the per-layer metrics and writes a Chrome trace.
Every run does a fixed amount of work; --seconds only confirms the
run length BENCHMARK.json states. README.md defines every metric.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BENCH = BUILD / "bench_e2e"
HOTPATH = BUILD / "vhive" / "bench_kernel_hotpath"
TRACE_DIR = ROOT / ".bench_build" / "trace"

# Run seed 0 starts at the library's default WorkerConfig/TrafficConfig
# seeds. README.md names the held-out seed.
DEFAULT_SEED = 0

# The measured part of one untraced run, in seconds: bench_e2e simulates
# six sub-seeds of the workload, sized to take about this long.
RUN_SECONDS = 25

WORKLOADS = {
    "host-reap-burst":
        "one host, waves of 32 concurrent REAP cold starts: the "
        "disk-bound Fig. 9 regime, no cluster or store",
    "fleet-tiered-t2":
        "32 workers on 2 sim threads, blob TieredReap from one store "
        "shard: the parallel kernel and host memory",
    "fleet-dedup-burst":
        "16 workers, chunked DedupReap over 4 shards under a flash crowd "
        "and deploy storm: store contention",
}

# End-to-end metrics: name -> (unit, clock, better, bound). Simulated
# ("sim") numbers are deterministic per seed; host numbers are noisy.
# A bound is the share of the parent's median by which a metric may
# worsen; it is at least the spread between runs on ten different
# seeds, which README.md records beside each bound.
E2E = {
    "cold_p50_ms": ("ms", "sim", "lower", 0.02),
    "cold_p99_ms": ("ms", "sim", "lower", 0.015),
    "e2e_p99_ms": ("ms", "sim", "lower", 0.01),
    "cold_fraction": ("ratio", "sim", "lower", 0.11),
    "artifact_mib_per_cold": ("MiB", "sim", "lower", 0.035),
    "fig8_err_pct": ("%", "sim", "lower", 0.025),
    "wall_s": ("s", "host", "lower", 0.25),
    "setup_s": ("s", "host", "lower", 0.25),
    "peak_rss_mib": ("MiB", "host", "lower", 0.08),
}

# End-to-end metrics that are printed and compared but not listed in
# BENCHMARK.json. No workload fails an invocation (the JSON's "failed"
# counts them) and host-reap-burst has no worker cache, while a listed
# metric must be non-zero everywhere; the fleets' median invocation is
# warm, and warm latency is a staircase of per-function plateaus the
# median jumps between from seed to seed.
E2E_UNLISTED = {
    "e2e_p50_ms": ("ms", "sim", "lower", 0.01),
    "failed_fraction": ("ratio", "sim", "lower", 0.0),
    "cache_peak_mib": ("MiB", "sim", "lower", 0.10),
}

# Per-layer metrics (layer = src/ module): name -> (unit, better).
LAYERS = {
    "sim.events": ("count", "lower"),
    "sim.host_ns_per_event": ("ns", "lower"),
    "sim.windows": ("count", "lower"),
    "sim.solo_windows": ("count", "higher"),
    "sim.multi_domain_windows": ("count", "lower"),
    "sim.messages": ("count", "lower"),
    "sim.events_per_window": ("count", "higher"),
    "sim.queue_mev_s": ("Mevent/s", "higher"),
    "sim.wakeup_mev_s": ("Mevent/s", "higher"),
    "sim.frame_mev_s": ("Mevent/s", "higher"),
    "sim.semaphore_mev_s": ("Mevent/s", "higher"),
    "vmm.restore_ms_p50": ("ms", "lower"),
    "vmm.conn_restore_ms_p50": ("ms", "lower"),
    "mem.fetch_ws_ms_p50": ("ms", "lower"),
    "mem.fetch_ws_ms_p99": ("ms", "lower"),
    "mem.install_ws_ms_p50": ("ms", "lower"),
    "mem.residual_faults_per_cold": ("count", "lower"),
    "mem.prefetched_pages_per_cold": ("count", "lower"),
    "mem.wasted_prefetch_ratio": ("ratio", "lower"),
    "mem.page_cache_peak_mib": ("MiB", "lower"),
    "mem.chunk_cache_peak_mib": ("MiB", "lower"),
    "mem.page_cache_evicted_mib": ("MiB", "lower"),
    "mem.chunk_budget_evictions": ("count", "lower"),
    "func.processing_ms_p50": ("ms", "lower"),
    "core.unattributed_ms_p50": ("ms", "lower"),
    "core.record_host_ms": ("ms", "lower"),
    "storage.disk_mib_read": ("MiB", "lower"),
    "storage.disk_requests": ("count", "lower"),
    "storage.page_cache_hit_ratio": ("ratio", "higher"),
    "storage.staged_mib": ("MiB", "lower"),
    "storage.dedup_ratio": ("ratio", "higher"),
    "storage.chunks_uploaded": ("count", "lower"),
    "storage.chunks_deduped": ("count", "higher"),
    "storage.ssd_evictions": ("count", "lower"),
    "storage.fleet_chunk_peak_mib": ("MiB", "lower"),
    "net.gets": ("count", "lower"),
    "net.ranged_gets": ("count", "lower"),
    "net.chunk_batches": ("count", "lower"),
    "net.mib_served": ("MiB", "lower"),
    "net.stream_waits": ("count", "lower"),
    "net.stream_wait_ms": ("ms", "lower"),
    "net.peak_stream_queue": ("count", "lower"),
    "net.shard_max_over_mean": ("ratio", "lower"),
    "net.request_retries": ("count", "lower"),
    "cluster.warm_hit_ratio": ("ratio", "higher"),
    "cluster.remote_fetches": ("count", "lower"),
    "cluster.snapshot_builds": ("count", "lower"),
    "cluster.scale_downs": ("count", "lower"),
    "cluster.pre_warms": ("count", "lower"),
    "cluster.pre_warm_hit_ratio": ("ratio", "higher"),
    "cluster.bg_prefetches": ("count", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
}

# bench_kernel_hotpath scenario -> per-layer metric.
HOTPATH_METRICS = {
    "delay-storm": "sim.queue_mev_s",
    "channel-pingpong": "sim.wakeup_mev_s",
    "spawn-join-churn": "sim.frame_mev_s",
    "semaphore-convoy": "sim.semaphore_mev_s",
}


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configure (once) and build bench_e2e and bench_kernel_hotpath."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "bench_kernel_hotpath", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise BenchError(f"build step {' '.join(cmd)} failed")


# ------------------------------------------------------------------- runs

class Timeline:
    """Host-clock spans of this script's own steps, for the trace."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.events = []

    def span(self, name, start, end):
        self.events.append({
            "ph": "X", "name": name, "pid": 0, "tid": 0,
            "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
            "args": {"span": len(self.events) + 1, "parent": 0,
                     "req": 0}})


def run_bench(timeline, label, args):
    """Run bench_e2e once and return its JSON result."""
    out = BUILD / "last_result.json"
    start = time.monotonic()
    try:
        done = subprocess.run([str(BENCH), *args, "--json", str(out)],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=170)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"bench_e2e {' '.join(args)}: {e}")
    timeline.span(label, start, time.monotonic())
    # Exit code 3 means the run finished but a check failed: the JSON
    # still carries the checks, which the caller reports.
    if done.returncode not in (0, 3):
        log(done.stderr[-4000:])
        raise BenchError(f"bench_e2e {' '.join(args)} exited "
                         f"{done.returncode}")
    with open(out) as f:
        result = json.load(f)
    out.unlink()
    return result


def run_hotpath(timeline):
    """bench_kernel_hotpath events/sec per scenario, in Mevent/s."""
    out = BUILD / "kernel_hotpath.json"
    start = time.monotonic()
    try:
        done = subprocess.run([str(HOTPATH)], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=170,
                              env={**os.environ,
                                   "VHIVE_BENCH_JSON": str(out)})
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"bench_kernel_hotpath: {e}")
    timeline.span("microbench bench_kernel_hotpath", start,
                  time.monotonic())
    if done.returncode != 0:
        raise BenchError("bench_kernel_hotpath failed")
    with open(out) as f:
        rows = json.load(f)
    out.unlink()
    return {HOTPATH_METRICS[r["cell"]]: r["value"] / 1e6 for r in rows
            if r["cell"] in HOTPATH_METRICS}


def failed_checks(result):
    return [f"{result['workload']}: {c['name']} ({c['detail']})"
            for c in result["checks"] if not c["ok"]]


def new_record(result, trace, timeline, problems):
    return {
        "workload": result["workload"], "seed": result["seed"],
        "sub_seeds": result["sub_seeds"], "trace": bool(trace),
        "started_at": time.time() - (time.monotonic() - timeline.t0),
        "digest": result["digest"],
        "attempted": result["attempted"],
        "failed": result["attempted"] - result["completed"],
        "problems": problems, "correct": not problems,
    }


def measure_e2e(workload, seed):
    """An untraced run: the end-to-end metrics of one workload, from one
    bench_e2e process that simulates the run's sub-seeds once each."""
    timeline = Timeline()
    result = run_bench(timeline, "run",
                       ["--workload", workload, "--seed", str(seed)])
    record = new_record(result, False, timeline, failed_checks(result))
    metrics = {}
    for name, (unit, clock, _, _) in {**E2E, **E2E_UNLISTED}.items():
        value = result["sim"].get(name) if clock == "sim" \
            else result[name]
        if value is not None:
            metrics[name] = {"value": value, "unit": unit, "clock": clock}
    record["metrics"] = metrics
    return record


def measure_layers(workload, seed):
    """A traced run: the per-layer metrics, a Chrome trace, and the
    tracing overhead against an untraced process of the same work."""
    timeline = Timeline()
    base = ["--workload", workload, "--seed", str(seed)]
    layers = run_hotpath(timeline)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = TRACE_DIR / f"{workload}-seed{seed}.trace.json"

    plain = run_bench(timeline, "untraced run", base)
    traced = run_bench(timeline, "traced run",
                       base + ["--trace", str(trace_file)])
    problems = failed_checks(plain) + failed_checks(traced)
    if (traced["digest"], traced["sim"]) != (plain["digest"],
                                             plain["sim"]):
        problems.append(f"{workload}: tracing changed the simulated "
                        f"results")
    if workload == "fleet-tiered-t2":
        one = run_bench(timeline, "run at 1 sim thread",
                        base + ["--sim-threads", "1"])
        if one["digest"] != plain["digest"]:
            problems.append(f"{workload}: digest at 1 sim thread "
                            f"{one['digest']} differs from 2 threads "
                            f"{plain['digest']}")
    merge_trace(trace_file, timeline)

    layers.update(traced["layers"])
    layers["bench.trace_overhead_pct"] = 100.0 * (
        traced["wall_s"] / plain["wall_s"] - 1)
    record = new_record(traced, True, timeline, problems)
    record["trace_file"] = os.path.relpath(trace_file, ROOT)
    record["layers"] = {n: {"value": layers.get(n, 0.0), "unit": u}
                        for n, (u, _) in LAYERS.items()}
    return record


def merge_trace(path, timeline):
    """Add this script's own host-clock spans to bench_e2e's trace."""
    with open(path) as f:
        doc = json.load(f)
    doc["traceEvents"].append({"ph": "M", "name": "process_name",
                               "pid": 0,
                               "args": {"name": "run.py host clock"}})
    doc["traceEvents"].extend(timeline.events)
    with open(path, "w") as f:
        json.dump(doc, f)


# ----------------------------------------------------------------- output

def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def benchmark_json():
    return {
        "command": ["python3", "bench/e2e/run.py"],
        "paths": ["bench/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why}
                      for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, _, b, bound) in E2E.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in LAYERS.items()],
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS,
                   help=f"must be {RUN_SECONDS}: the run length is fixed "
                        f"so that every run measures the same work")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path,
                   help="results file (default: .bench_build/e2e/"
                        "results.json)")
    p.add_argument("--append", action="store_true",
                   help="add this run's records to an existing --out")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the repository root")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds != RUN_SECONDS:
        p.error(f"--seconds must be {RUN_SECONDS}, the run length "
                f"BENCHMARK.json states")

    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0

    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        build()
        records = [measure_layers(w, args.seed) if args.trace
                   else measure_e2e(w, args.seed) for w in workloads]
    except BenchError as e:
        log(f"run.py: {e}")
        return 2

    for rec in records:
        table = rec["layers"] if args.trace else rec["metrics"]
        for name, m in table.items():
            print(f"{rec['workload']} {name} {fmt(m['value'])} {m['unit']}")
        print(f"{rec['workload']} digest {rec['digest']} sub-seeds "
              f"{' '.join(map(str, rec['sub_seeds']))}")
        for problem in rec["problems"]:
            print(f"CHECK FAILED {problem}")

    out = args.out or BUILD / "results.json"
    previous = []
    if args.append and out.exists():
        with open(out) as f:
            previous = json.load(f)["runs"]
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"runs": previous + records}, f, indent=1)

    correct = all(r["correct"] for r in records)
    listed = LAYERS if args.trace else E2E
    key = "layers" if args.trace else "metrics"
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}."
        for n in listed:
            m = r[key][n]
            metrics[prefix + n] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

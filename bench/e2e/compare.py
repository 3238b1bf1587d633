#!/usr/bin/env python3
"""Summarise or compare results files written by run.py.

    python3 bench/e2e/compare.py RESULTS.json
        per workload and metric: runs, median, quartiles, spread
    python3 bench/e2e/compare.py PARENT.json CHANGE.json
        the parent-versus-change rule of README.md, one row per workload

The comparison pairs the i-th untraced run of each workload on one side
with the i-th on the other, in the order they started, and needs at
least ten pairs whose first-run side alternates. Simulated metrics and
digests are compared exactly: a pair run on the same seed simulates the
same inputs, so any difference is the change's. A host metric counts as
a gain only when the change wins at least nine pairs in ten (ties count
for neither) and the medians differ by more than the parent's
interquartile range; it is a regression when the change's median is
worse than the parent's by more than the metric's bound in run.py (the
bounds BENCHMARK.json lists), and unresolved when the parent's own
spread is wider than that bound. A simulated metric is a regression
when it is worse by more than its bound, and "changed" otherwise.
Exits 1 on a regression.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import E2E, E2E_UNLISTED  # noqa: E402

MIN_PAIRS = 10
SPEC = {**E2E, **E2E_UNLISTED}
LATENCY_METRICS = ("cold_p50_ms", "cold_p99_ms", "e2e_p50_ms",
                   "e2e_p99_ms")


def load(path):
    with open(path) as f:
        runs = [r for r in json.load(f)["runs"] if not r["trace"]]
    by = {}
    for r in sorted(runs, key=lambda r: r["started_at"]):
        by.setdefault(r["workload"], []).append(r)
    return by


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(path):
    for workload, runs in load(path).items():
        digests = {(r["seed"], r["digest"]) for r in runs}
        seeds = sorted({r["seed"] for r in runs})
        print(f"{workload}: {len(runs)} runs, seeds {seeds}, "
              f"{len(digests)} distinct (seed, digest) pair(s)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:22s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {100 * spread:6.2f}%")


def worse_by(change, parent, better):
    """Share by which change is worse than parent (negative: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def judge_host(pvals, cvals, better, bound):
    n = len(pvals)
    wins = sum(worse_by(c, p, better) < 0 for p, c in zip(pvals, cvals))
    q1p, medp, q3p = quartiles(pvals)
    _, medc, _ = quartiles(cvals)
    iqr = q3p - q1p
    rel = worse_by(medc, medp, better)
    spread = iqr / medp if medp else 0.0
    all_better = all(worse_by(c, p, better) < 0
                     for c in cvals for p in pvals)
    if rel < 0 and wins >= 0.9 * n and abs(medc - medp) > iqr:
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = f"unresolved (parent spread {100 * spread:.1f}%)"
    elif rel > bound:
        verdict = "REGRESSION"
    else:
        verdict = "no regression"
    return verdict, f"wins {wins}/{n}"


def compare(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    rows, regression = [], False
    for workload in parent:
        if workload not in change:
            print(f"{workload}: no runs on the change side")
            continue
        pairs = list(zip(parent[workload], change[workload]))
        n = len(pairs)
        first = [p["started_at"] < c["started_at"] for p, c in pairs]
        alternating = all(a != b for a, b in zip(first, first[1:]))
        same_seeds = all(p["seed"] == c["seed"] for p, c in pairs)
        enough = n >= MIN_PAIRS and alternating
        print(f"\n{workload}: {n} pairs, "
              f"{'alternating' if alternating else 'NOT alternating'}"
              f"{'' if same_seeds else ', seeds differ within pairs'}")
        if not enough:
            print(f"  fewer than {MIN_PAIRS} alternating pairs: every "
                  f"host metric is unresolved")

        verdicts, sim_moved = [], False
        for name, (_, clock, better, bound) in SPEC.items():
            if name not in pairs[0][0]["metrics"]:
                continue
            pvals = [p["metrics"][name]["value"] for p, _ in pairs]
            cvals = [c["metrics"][name]["value"] for _, c in pairs]
            q1p, medp, q3p = quartiles(pvals)
            q1c, medc, q3c = quartiles(cvals)
            if clock == "sim":
                if pvals == cvals:
                    verdict, note = "identical", ""
                else:
                    rel = worse_by(medc, medp, better)
                    verdict = "REGRESSION" if rel > bound else "changed"
                    note = f"{100 * rel:+.2f}% worse" if rel > 0 else \
                        f"{-100 * rel:.2f}% better"
                    sim_moved |= name in LATENCY_METRICS
            elif enough:
                verdict, note = judge_host(pvals, cvals, better, bound)
            else:
                verdict, note = "unresolved", ""
            regression |= verdict == "REGRESSION"
            if verdict not in ("identical", "no regression"):
                verdicts.append(f"{name} {verdict}")
            print(f"  {name:22s} {clock:4s} parent {medp:11.6g} "
                  f"[{q1p:.6g}, {q3p:.6g}]  change {medc:11.6g} "
                  f"[{q1c:.6g}, {q3c:.6g}]  {verdict} {note}")

        same_digest = sum(p["digest"] == c["digest"] for p, c in pairs)
        print(f"  digests identical in {same_digest}/{n} pairs")
        if sim_moved:
            fp = statistics.median(p["metrics"]["fig8_err_pct"]["value"]
                                   for p, _ in pairs)
            fc = statistics.median(c["metrics"]["fig8_err_pct"]["value"]
                                   for _, c in pairs)
            print(f"  simulated latency moved: fig8_err_pct "
                  f"{fp:.3f} -> {fc:.3f}")
            verdicts.append(f"fig8_err_pct {fp:.2f}->{fc:.2f}")
        rows.append((workload, f"{same_digest}/{n}",
                     "; ".join(verdicts) or "no change beyond bounds"))

    print(f"\n{'workload':22s} {'digests':8s} verdict")
    for workload, digests, verdict in rows:
        print(f"{workload:22s} {digests:8s} {verdict}")
    return 1 if regression else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("results", nargs="+", type=Path,
                   help="RESULTS.json, or PARENT.json CHANGE.json")
    args = p.parse_args()
    if len(args.results) == 1:
        summarise(args.results[0])
        return 0
    if len(args.results) != 2:
        p.error("give one results file, or a parent and a change file")
    return compare(*args.results)


if __name__ == "__main__":
    sys.exit(main())

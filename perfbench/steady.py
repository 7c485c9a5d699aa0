#!/usr/bin/env python3
"""Steadiness of the benchmark: run every workload many times, alternating
between workloads, and print each metric's median, quartiles and spread
against the bound fixed in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10            # one set of ten runs
    python3 perfbench/steady.py --runs 10 --sets 2   # two sets, compared
    python3 perfbench/steady.py --runs 5 --workloads serve --trace 1

The spread of a metric is the distance between its first and third
quartile (statistics.quantiles(values, n=4)) as a share of its median.
A metric is steady when its spread is below a third of its bound; two
sets agree when, for every metric, the second median is not worse than
the first by more than the bound, and the share of failed operations is
the same. Runs use seeds first-seed, first-seed+1, ...; the seed of a run
is the same on every workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

VERBOSE = False
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace, seconds):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def one_set(spec, workloads, runs, first_seed, trace, seconds):
    """{workload: [result, ...]}, running the workloads in turn."""
    results = {w: [] for w in workloads}
    for i in range(runs):
        for w in workloads:
            result, wall = run_once(spec, w, first_seed + i, trace, seconds)
            results[w].append(result)
            print(f"  run {i + 1}/{runs} {w:<6} seed {first_seed + i}: {wall:5.1f} s, "
                  f"{result['attempted']} attempted, {result['failed']} failed",
                  file=sys.stderr, flush=True)
    return results


def table(spec, results, trace):
    metrics = spec["per_layer" if trace else "end_to_end"]
    rows = {}
    for w, rs in results.items():
        print(f"\n{w}: {len(rs)} runs, failed share "
              f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med, q1, q3, sp = spread(vals)
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            else:
                verdict = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            rows[(w, m["name"])] = med
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {m['name']:<34} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.3f} {b:>6}  {verdict}")
            if VERBOSE:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
    return rows


def compare(spec, first, second, results):
    print("\nsecond set against the first:")
    ok = True
    for m in spec["end_to_end"]:
        for w in results[0]:
            a, b = first[(w, m["name"])], second[(w, m["name"])]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  {w:<6} {m['name']:<20} {a:14.6g} -> {b:14.6g}  worse by {worse:+.3f} (bound {m['bound']:.2f}) {verdict}")
    for w in results[0]:
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w]) for s in results]
        same = shares[0] == shares[1]
        ok &= same
        print(f"  {w:<6} failed share {shares[0]:.6g} vs {shares[1]:.6g} {'ok' if same else 'DIFFERENT'}")
    print("\ntwo sets agree" if ok else "\ntwo sets DISAGREE")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    global VERBOSE
    VERBOSE = args.values
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            raise SystemExit(f"unknown workload {w}")
    print(f"perfbench steadiness: {args.runs} runs x {len(workloads)} workloads x {args.sets} set(s), "
          f"{args.seconds} s each, trace {args.trace}, nproc {os.cpu_count()}, "
          f"{time.strftime('%Y-%m-%d %H:%M UTC', time.gmtime())}")
    results, rows = [], []
    for s in range(args.sets):
        print(f"\nset {s + 1}", flush=True)
        # Each set gets its own seeds, as two independent sets of runs would.
        r = one_set(spec, workloads, args.runs, args.first_seed + s * args.runs, args.trace, args.seconds)
        results.append(r)
        rows.append(table(spec, r, args.trace))
    if args.sets == 2 and not args.trace:
        compare(spec, rows[0], rows[1], results)


if __name__ == "__main__":
    main()

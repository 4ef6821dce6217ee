#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs the manifest's command once per seed on each chosen workload and,
for every end-to-end metric, reports the median over the seeds and the
spread: the distance between the first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them) as a share of the
median. A spread must stay within the metric's bound and should stay
below a third of it.

    python3 perfbench/steadiness.py --seeds 1-10 --out run1.json
    python3 perfbench/steadiness.py --seeds 11-20 --out run2.json
    python3 perfbench/steadiness.py --compare run1.json run2.json

Run it from the repository root. `--compare` checks that no metric's
second median is worse than the first by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(manifest, workload, seed):
    cmd = manifest["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: failed checks\n{proc.stderr}")
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(args, manifest):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in manifest["workloads"]]
    results = {}
    for workload in workloads:
        values = {}
        for seed in seed_list(args.seeds):
            result, wall = run_once(manifest, workload, seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"{result['attempted']} checks", file=sys.stderr)
        results[workload] = values
    return results


def report(manifest, results):
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    ok = True
    for workload, values in results.items():
        print(f"{workload}:")
        for name, vals in values.items():
            if name not in bounds or len(vals) < 2:
                continue
            s = spread(vals)
            bound = bounds[name]
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            ok &= s <= bound
            print(f"  {name:<16} median {statistics.median(vals):>14.6g}  "
                  f"spread {s:6.3f}  bound {bound:5.2f}  {verdict}")
    return ok


def compare(manifest, first, second):
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    ok = True
    for workload, values in first.items():
        for name, vals in values.items():
            if name not in bounds or name not in second.get(workload, {}):
                continue
            a = statistics.median(vals)
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bounds[name] else "WORSE"
            ok &= worse <= bounds[name]
            print(f"{workload:<20} {name:<16} {a:>14.6g} -> {b:>14.6g}  "
                  f"worse by {worse:+.3f} (bound {bounds[name]:.2f}) {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="write the raw values here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    manifest = load_manifest()
    if args.compare:
        with open(args.compare[0]) as f, open(args.compare[1]) as g:
            sys.exit(0 if compare(manifest, json.load(f), json.load(g)) else 1)
    results = measure(args, manifest)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if report(manifest, results) else 1)


if __name__ == "__main__":
    main()

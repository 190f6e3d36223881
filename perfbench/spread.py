#!/usr/bin/env python3
"""Run perfbench over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads kv-a-1m,scan-e-1m --seeds 1-10
    python3 perfbench/spread.py --workloads kv-a-1m --seeds 1-5 \\
        --pwb-ns 180 --compare base.json --out slow.json

For every workload and end-to-end metric it prints the median, the
quartiles, the spread (q3 - q1) / median and the metric's bound from
BENCHMARK.json. With --compare it also prints how far each median moved
from the saved results of an earlier invocation (--out), as a share of
the old median, and marks the moves that exceed the bound. Runs are
sequential; run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--pwb-ns", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old = json.loads(Path(args.compare).read_text()) if args.compare else {}
    results = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            if args.pwb_ns:
                cmd += ["--pwb-ns", str(args.pwb_ns)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: FAILED (exit {p.returncode})",
                      file=sys.stderr)
                continue
            res = json.loads(lines[-1])
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        results[wl] = runs
        if not runs:
            continue

        print(f"\n{wl}: {len(runs)} runs")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}" + ("  move" if old else ""))
        for name in runs[0]:
            vals = [r[name] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name, {}).get("bound")
            line = (f"  {name:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                    f"{spread:>9.3f}{b if b is not None else '-':>8}")
            if old.get(wl):
                omed = statistics.median(r[name] for r in old[wl])
                move = (med - omed) / omed if omed else float("nan")
                worse = (move > 0) == (bounds.get(name, {}).get("better")
                                       == "lower")
                flag = " CROSSED" if b is not None and worse and \
                    abs(move) > b else ""
                line += f"  {move:+.3f}{flag}"
            print(line)
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()

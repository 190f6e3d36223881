#!/usr/bin/env python3
"""Run perfbench in two checkouts in alternating pairs and judge each metric.

    python3 scripts/perf_pairs.py --parent ../parent --change . \\
        --workloads scan-e-1m,kv-a-1m --seeds 501-510 [--seconds 10] \\
        [--out runs.json]
    python3 scripts/perf_pairs.py --self-test

For each workload and seed it runs `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0` once in each checkout: the parent first
on odd seeds and the change first on even ones, so a drift of the
machine's speed over a series favours neither side. A run that exits
nonzero or is not `correct` ends the series: the script names it and
exits 1 (after writing what it has to --out).

For each workload and end-to-end metric of BENCHMARK.json it prints one
Markdown table row: each side's median and quartiles, the change's move
as a share of the parent median, the pairs the change won (ties count
for neither side), the metric's bound and one verdict:

    gain        the change won at least 9 of 10 pairs and its median
                moved the better way by more than the parent's
                interquartile range
    worse       the median moved past the bound the wrong way
    unresolved  the parent's interquartile range is wider than the
                bound, so these runs cannot tell a move of the bound
                from noise
    flat        none of these

--self-test checks the verdicts on synthetic runs and the run order and
failure exit on two stub checkouts; CTest runs it as perf_pairs_selftest.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ inside perfbench/
from spread import quartiles, seeds  # noqa: E402


class RunFailed(Exception):
    pass


def run_one(side, checkout, workload, seed, seconds):
    """The metric values of one perfbench run; RunFailed names a bad one."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    name = f"{side} {workload} seed {seed}"
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RunFailed(f"{name}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res.get("correct"):
        raise RunFailed(f"{name}: not correct "
                        f"({res.get('failed')} failed operations)")
    return {k: v["value"] for k, v in res["metrics"].items()}


def pair_order(seed):
    return ("parent", "change") if seed % 2 else ("change", "parent")


def judge(parent, change, better, bound):
    """One row: medians, quartiles, move, pairs won and the verdict."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    move = (cmed - pmed) / pmed if pmed else 0.0
    iqr = pq3 - pq1
    if 10 * won >= 9 * len(parent) and sign * (cmed - pmed) > iqr:
        verdict = "gain"
    elif -sign * move > bound:
        verdict = "worse"
    elif pmed and iqr / abs(pmed) > bound:
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {"parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
            "move": move, "won": won, "pairs": len(parent),
            "verdict": verdict}


def fmt(v):
    return f"{v / 1000:.0f}k" if abs(v) >= 10000 else f"{v:.4g}"


def cell(med_q1_q3):
    med, q1, q3 = med_q1_q3
    return f"{fmt(med)} [{fmt(q1)}–{fmt(q3)}]"


def report(results, metrics):
    print("| workload | metric | parent median [IQR] | change median [IQR] "
          "| Δ median | change better | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for wl, runs in results.items():
        if not runs["change"]:
            continue
        for m in metrics:
            name = m["name"]
            if name not in runs["parent"][0]:
                continue
            r = judge([x[name] for x in runs["parent"]],
                      [x[name] for x in runs["change"]], m["better"],
                      m["bound"])
            print(f"| {wl} | {name} | {cell(r['parent'])} "
                  f"| {cell(r['change'])} | {100 * r['move']:+.1f}% "
                  f"| {r['won']}/{r['pairs']} | {m['bound']:g} "
                  f"| {r['verdict']} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    dirs = {"parent": args.parent, "change": args.change}
    results = {}
    status = 0
    try:
        for wl in args.workloads.split(","):
            runs = results[wl] = {"seeds": [], "parent": [], "change": []}
            for seed in seeds(args.seeds):
                got = {side: run_one(side, dirs[side], wl, seed, args.seconds)
                       for side in pair_order(seed)}
                runs["seeds"].append(seed)
                for side, vals in got.items():
                    runs[side].append(vals)
                print(f"{wl} seed {seed}: " + " ".join(
                    f"{m['name']}={got['parent'][m['name']]:.4g}→"
                    f"{got['change'][m['name']]:.4g}"
                    for m in metrics if m["name"] in got["parent"]),
                    file=sys.stderr, flush=True)
    except RunFailed as e:
        print(f"perf_pairs: {e}", file=sys.stderr)
        status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if status == 0:
        report(results, metrics)
    return status


def self_test():
    import os
    import tempfile

    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.05, 9.95]
    lower = [v * 0.8 for v in base]
    expect("every pair won by 20%", judge(base, lower, "lower", 0.25)[
        "verdict"], "gain")
    expect("a throughput gain", judge(base, [v * 1.2 for v in base],
                                      "higher", 0.25)["verdict"], "gain")
    eight = lower[:8] + [v * 1.01 for v in base[8:]]
    r = judge(base, eight, "lower", 0.25)
    expect("8/10 pairs won", (r["won"], r["verdict"]), (8, "flat"))
    tiny = [v - 0.01 for v in base]  # every pair, but inside the IQR
    expect("a move inside the IQR", judge(base, tiny, "lower", 0.25)[
        "verdict"], "flat")
    expect("+40% on a lower-is-better metric",
           judge(base, [v * 1.4 for v in base], "lower", 0.25)["verdict"],
           "worse")
    expect("-40% on a higher-is-better metric",
           judge(base, [v * 0.6 for v in base], "higher", 0.25)["verdict"],
           "worse")
    wide = [6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 6.5, 13.5, 7.5, 12.5]
    expect("a parent IQR past the bound",
           judge(wide, list(reversed(wide)), "lower", 0.25)["verdict"],
           "unresolved")
    r = judge(base, list(base), "lower", 0.25)
    expect("ties", (r["won"], r["verdict"], r["move"]), (0, "flat", 0.0))

    # Two stub checkouts whose run.py logs each call. The change fails its
    # third run: the series must stop there, name it and exit 1.
    stub = """import json, sys
from pathlib import Path
a = sys.argv
seed = int(a[a.index("--seed") + 1])
side = Path.cwd().name
with open(Path.cwd().parent / "order.log", "a") as f:
    f.write(f"{side} {seed}\\n")
ok = not (side == "change" and seed == 3)
print(json.dumps({"correct": ok, "attempted": 1, "failed": int(not ok),
                  "metrics": {"p50_us": {"value": 5.0 - (side == "change"),
                                         "unit": "us"}}}))
"""
    with tempfile.TemporaryDirectory(prefix="perf_pairs_selftest_") as tmp:
        for side in ("parent", "change"):
            os.makedirs(os.path.join(tmp, side, "perfbench"))
            with open(os.path.join(tmp, side, "perfbench", "run.py"),
                      "w") as f:
                f.write(stub)
        out = os.path.join(tmp, "runs.json")
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--parent", os.path.join(tmp, "parent"),
             "--change", os.path.join(tmp, "change"),
             "--workloads", "stub", "--seeds", "1-4", "--seconds", "1",
             "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        expect("exit status of a failed series", p.returncode, 1)
        if "change stub seed 3: not correct" not in p.stderr:
            failures.append(f"failed run not named: {p.stderr!r}")
        with open(os.path.join(tmp, "order.log")) as f:
            expect("run order", f.read().split("\n"),
                   ["parent 1", "change 1", "change 2", "parent 2",
                    "parent 3", "change 3", ""])
        with open(out) as f:
            expect("pairs kept", json.load(f)["stub"]["seeds"], [1, 2])

    for f in failures:
        print(f"perf_pairs --self-test: FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print("perf_pairs --self-test: ok")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    sys.exit(main())

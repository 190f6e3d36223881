#!/usr/bin/env python3
"""Randomized crash-harness sweep for CI.

Drives bench/flit_crashtest over the full matrix — both layouts x all
three durability modes through the direct API, plus both layouts through
the network path — until a target number of randomized kill points is
reached (default 200) or the time box expires. Every cell's RNG seed is
derived from one master seed, which is printed up front and again on any
failure so a red run is reproducible with --seed.

The sweep ends with a seeded-bug validation round: the harness is re-run
with the bug.unsafe_ack failpoint site armed (FLIT_FAILPOINTS, an
intentionally planted ack-before-durable bug) and must REPORT a
durable-lost violation — the only class an ack-before-durable bug can
produce — proving the detector still detects. A red round for any other
reason (a rejected open, a failed scan self-check) does not count.

Usage:
  scripts/crash_sweep.py --crashtest build/bench/flit_crashtest \\
      --server build/bench/flit_server [--kills 200] [--time-box 900] \\
      [--seed N]
"""

import argparse
import os
import random
import subprocess
import sys
import tempfile
import time

API_MATRIX = [
    (layout, durability)
    for layout in ("hashed", "ordered")
    for durability in ("never", "everysec", "always")
]
NET_MATRIX = [("hashed", "always"), ("ordered", "always")]


def run_cell(args, mode, layout, durability, iters, seed, workdir):
    img = os.path.join(workdir, f"sweep_{mode}_{layout}_{durability}.img")
    cmd = [
        args.crashtest,
        f"--mode={mode}",
        f"--layout={layout}",
        f"--durability={durability}",
        f"--iters={iters}",
        f"--seed={seed}",
        f"--kill-max-ms={args.kill_max_ms}",
        f"--file={img}",
    ]
    if mode == "net":
        cmd.append(f"--server={args.server}")
    print(f"--- {mode}/{layout}/{durability}: {iters} kills, seed={seed}",
          flush=True)
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        print(
            f"FAIL: {mode}/{layout}/{durability} seed={seed} "
            f"(master seed {args.seed}); reproduce with:\n  {' '.join(cmd)}",
            file=sys.stderr,
            flush=True,
        )
        return False
    return True


def run_seeded_bug_check(args, seed, workdir):
    img = os.path.join(workdir, "sweep_seeded_bug.img")
    cmd = [
        args.crashtest,
        "--mode=api",
        "--layout=hashed",
        "--durability=never",
        "--iters=6",
        "--kill-min-ms=40",
        "--kill-max-ms=200",
        f"--seed={seed}",
        "--expect-violation",
        f"--file={img}",
    ]
    print(f"--- seeded-bug validation, seed={seed}", flush=True)
    env = dict(os.environ, FLIT_FAILPOINTS="bug.unsafe_ack=once")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or "VIOLATION durable-lost" not in proc.stdout:
        print(
            f"FAIL: the planted ack-before-durable bug went UNDETECTED "
            f"as durable-lost (seed={seed}, master seed {args.seed})",
            file=sys.stderr,
            flush=True,
        )
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--crashtest", required=True,
                    help="path to the flit_crashtest binary")
    ap.add_argument("--server", required=True,
                    help="path to the flit_server binary (net mode)")
    ap.add_argument("--kills", type=int, default=200,
                    help="total randomized kill points to aim for")
    ap.add_argument("--time-box", type=float, default=900.0,
                    help="stop starting new cells after this many seconds")
    ap.add_argument("--kill-max-ms", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0,
                    help="master seed (0: randomize)")
    args = ap.parse_args()

    if args.seed == 0:
        args.seed = random.SystemRandom().randrange(1, 2**63)
    rng = random.Random(args.seed)
    print(f"crash_sweep: master seed {args.seed} "
          f"(reproduce with --seed {args.seed})", flush=True)

    # Net iterations cost more wall clock (server boot) than API ones, so
    # they get a smaller share of the kill budget.
    cells = [("api",) + c for c in API_MATRIX] + [("net",) + c
                                                 for c in NET_MATRIX]
    net_share = 0.2
    api_cells = len(API_MATRIX)
    net_cells = len(NET_MATRIX)
    per_api = max(1, round(args.kills * (1 - net_share) / api_cells))
    per_net = max(1, round(args.kills * net_share / net_cells))

    start = time.monotonic()
    kills = 0
    failures = 0
    skipped = []
    with tempfile.TemporaryDirectory(prefix="flit_crash_sweep_") as workdir:
        for mode, layout, durability in cells:
            if time.monotonic() - start > args.time_box:
                skipped.append(f"{mode}/{layout}/{durability}")
                continue
            iters = per_api if mode == "api" else per_net
            if not run_cell(args, mode, layout, durability, iters,
                            rng.randrange(1, 2**63), workdir):
                failures += 1
            else:
                kills += iters
        if not run_seeded_bug_check(args, rng.randrange(1, 2**63), workdir):
            failures += 1

    elapsed = time.monotonic() - start
    if skipped:
        print(f"crash_sweep: time box hit; skipped cells: "
              f"{', '.join(skipped)}", flush=True)
    if failures:
        print(
            f"crash_sweep: {failures} FAILING cell(s) after {kills} kills "
            f"in {elapsed:.0f}s — master seed {args.seed}",
            file=sys.stderr,
        )
        return 1
    print(f"crash_sweep: ok — {kills} randomized kill points, "
          f"0 violations, seeded bug detected, {elapsed:.0f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

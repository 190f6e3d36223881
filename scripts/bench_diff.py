#!/usr/bin/env python3
"""Compare two benchmark JSON snapshots row by row.

Usage: bench_diff.py BASELINE.json CANDIDATE.json [--min-delta PCT]

Works on BENCH_ycsb_kv.json and BENCH_flit_loadgen.json alike. Rows are
matched on (words, layout, mix, batch, conns) — `conns` is the loadgen's
connection count and defaults to 0 for the in-process benches, so old
snapshots keep matching. For each matched row the throughput,
persistence-instruction, and (when present) p50/p99/p999 latency deltas
are printed as a table; rows present on only one side are listed
separately. Latency columns are tolerated, not required: snapshots
predating the histogram simply print 0. Exit status is always 0 — this
is a reporting tool, not a gate (the fence-coalescing gate lives in
check_fence_coalescing.py).

Between two ycsb_kv snapshots taken at the documented settings
(--threads=4 --seconds=0.5), compare the pwbs/op and pfences/op columns
only. The Mops column does not repeat there: one row of one binary read
7.0, 14.6 and 14.8 Mops in three back-to-back runs on a 4-vCPU
container, so a Mops delta between two snapshots says nothing about the
change between them.

Rows that cannot be compared are never dropped silently: a key present
in only one snapshot, or appearing twice within one snapshot (later
occurrence wins), produces a WARNING on stderr.

Robustness counters (loadgen snapshots): each side's summed misses /
mismatches / errors / chaos_events are reported after the table. A
candidate with verification failures gets a WARNING — its throughput
numbers come from a broken run and should not be trusted — as does a
chaos/non-chaos mismatch between the sides (chaos rounds sacrifice
throughput on purpose, so the Mops delta is not like-for-like). `--self-test` exercises
both warnings against synthesized snapshots and is wired up as the
`bench_diff_selftest` CTest entry.
"""

import argparse
import json
import sys


def key(row):
    return (row["words"], row.get("layout", ""), row["mix"],
            row.get("batch", 1), row.get("conns", 0))


def warn(msg):
    print(f"WARNING: bench_diff: {msg}", file=sys.stderr, flush=True)


def load(path):
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for r in data.get("rows", []):
        k = key(r)
        if k in rows:
            warn(f"{path}: duplicate row for {k}; keeping the later one")
        rows[k] = r
    return rows


def pct(new, old):
    if old == 0:
        return float("inf") if new > 0 else 0.0
    return 100.0 * (new - old) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--min-delta", type=float, default=0.0,
                    help="only print rows whose |Mops delta| >= PCT")
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    # The redundancy-lint columns (.get with 0.0: snapshots predating the
    # PersistCheck lint lack them). redundant_pwbs_per_op is only nonzero
    # when the bench ran under FLIT_CHECKED; empty_pfences_per_op is
    # counted in every build.
    hdr = (f"{'words':<15} {'layout':<8} {'mix':<4} {'batch':>5} "
           f"{'conns':>5} "
           f"{'Mops':>8} {'Δ%':>8} {'pwbs/op':>9} {'Δ%':>8} "
           f"{'pfences/op':>11} {'Δ%':>8} {'rpwb/op':>8} {'Δ%':>8} "
           f"{'epf/op':>7} {'Δ%':>8} "
           f"{'p50us':>8} {'Δ%':>8} {'p99us':>8} {'Δ%':>8} "
           f"{'p999us':>8} {'Δ%':>8}")
    print(hdr)
    print("-" * len(hdr))
    for k in shared:
        b, c = base[k], cand[k]
        dm = pct(c["mops"], b["mops"])
        if abs(dm) < args.min_delta:
            continue
        dw = pct(c["pwbs_per_op"], b["pwbs_per_op"])
        df = pct(c.get("pfences_per_op", 0.0), b.get("pfences_per_op", 0.0))
        crp = c.get("redundant_pwbs_per_op", 0.0)
        cep = c.get("empty_pfences_per_op", 0.0)
        drp = pct(crp, b.get("redundant_pwbs_per_op", 0.0))
        dep = pct(cep, b.get("empty_pfences_per_op", 0.0))
        c50, c99, c999 = (c.get("p50_us", 0.0), c.get("p99_us", 0.0),
                          c.get("p999_us", 0.0))
        d50 = pct(c50, b.get("p50_us", 0.0))
        d99 = pct(c99, b.get("p99_us", 0.0))
        d999 = pct(c999, b.get("p999_us", 0.0))
        print(f"{k[0]:<15} {k[1]:<8} {k[2]:<4} {k[3]:>5} {k[4]:>5} "
              f"{c['mops']:>8.3f} {dm:>+7.1f}% {c['pwbs_per_op']:>9.3f} "
              f"{dw:>+7.1f}% {c.get('pfences_per_op', 0.0):>11.3f} "
              f"{df:>+7.1f}% {crp:>8.4f} {drp:>+7.1f}% "
              f"{cep:>7.4f} {dep:>+7.1f}% "
              f"{c50:>8.1f} {d50:>+7.1f}% {c99:>8.1f} {d99:>+7.1f}% "
              f"{c999:>8.1f} {d999:>+7.1f}%")

    for label, keys in (("only in baseline", only_base),
                        ("only in candidate", only_cand)):
        if keys:
            print(f"\n{label}:")
            for k in keys:
                print(f"  {k[0]} {k[1]} {k[2]} batch={k[3]} conns={k[4]}")
    if only_base:
        # A key that disappears between snapshots is the classic silent
        # regression hider (a bench cell stopped running): make it loud.
        warn(f"{len(only_base)} baseline row(s) have no candidate "
             f"counterpart and were NOT compared")
    if only_cand:
        warn(f"{len(only_cand)} candidate row(s) are new and have no "
             f"baseline to compare against")

    def robustness(rows):
        tot = {"misses": 0, "mismatches": 0, "errors": 0, "chaos_events": 0}
        for r in rows.values():
            for name in tot:
                # D's read-latest reads may race the insert they skewed
                # towards: its misses are expected (ycsb_kv's own verdict
                # skips them too), not verification failures.
                if name == "misses" and r.get("mix") == "D":
                    continue
                tot[name] += int(r.get(name, 0))
        return tot

    rb, rc = robustness(base), robustness(cand)
    print(f"\nrobustness: baseline  misses={rb['misses']} "
          f"mismatches={rb['mismatches']} errors={rb['errors']} "
          f"chaos_events={rb['chaos_events']}")
    print(f"robustness: candidate misses={rc['misses']} "
          f"mismatches={rc['mismatches']} errors={rc['errors']} "
          f"chaos_events={rc['chaos_events']}")
    bad = rc["misses"] + rc["mismatches"] + rc["errors"]
    if bad:
        warn(f"candidate snapshot has {bad} verification failure(s) — "
             f"its throughput numbers come from a broken run")
    if (rb["chaos_events"] == 0) != (rc["chaos_events"] == 0):
        warn("one side ran --chaos and the other did not; chaos rounds "
             "sacrifice throughput on purpose, so Mops deltas are not "
             "like-for-like")

    print(f"\n{len(shared)} matched rows "
          f"({len(only_base)} baseline-only, {len(only_cand)} candidate-only)")
    return 0


def self_test():
    """Assert the dropped-row warnings actually fire."""
    import os
    import subprocess
    import tempfile

    def row(mix, mops, conns=0):
        return {"words": "flit-ht", "layout": "hashed", "mix": mix,
                "batch": 1, "conns": conns, "mops": mops,
                "pwbs_per_op": 2.0, "pfences_per_op": 1.0}

    def diff(base_rows, cand_rows):
        with tempfile.TemporaryDirectory(prefix="bench_diff_selftest_") as tmp:
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            with open(base_path, "w") as f:
                json.dump({"rows": base_rows}, f)
            with open(cand_path, "w") as f:
                json.dump({"rows": cand_rows}, f)
            return subprocess.run(
                [sys.executable, os.path.abspath(__file__), base_path,
                 cand_path],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    # Baseline: mixes A and B, plus a duplicate of A (later wins).
    # Candidate: B disappeared, C is new; A carries verification failures
    # and chaos rounds — both must be called out.
    proc = diff([row("A", 1.0), row("A", 1.5), row("B", 2.0)],
                [dict(row("A", 1.6), errors=3, chaos_events=12),
                 row("C", 3.0)])
    # Misses are D's expected read-latest race, a failure on any other mix.
    d_misses = diff([row("D", 1.0)], [dict(row("D", 1.0), misses=500)])
    a_misses = diff([row("A", 1.0)], [dict(row("A", 1.0), misses=1)])

    failures = []
    if "verification failure" in d_misses.stderr:
        failures.append("D-row misses reported as verification failures")
    if "1 verification failure" not in a_misses.stderr:
        failures.append("A-row misses not reported as a verification "
                        "failure")
    if proc.returncode != 0:
        failures.append(f"exit status {proc.returncode}, expected 0")
    if "duplicate row" not in proc.stderr:
        failures.append("no duplicate-row warning on stderr")
    if "NOT compared" not in proc.stderr:
        failures.append("no dropped-baseline-row warning on stderr")
    if "1 matched rows" not in proc.stdout:
        failures.append("expected exactly 1 matched row")
    if "verification failure" not in proc.stderr:
        failures.append("no broken-candidate robustness warning")
    if "like-for-like" not in proc.stderr:
        failures.append("no chaos-mismatch warning")
    if failures:
        for f in failures:
            print(f"bench_diff --self-test: FAIL: {f}", file=sys.stderr)
        print(f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n"
              f"{proc.stderr}", file=sys.stderr)
        return 1
    print("bench_diff --self-test: ok")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    sys.exit(main())

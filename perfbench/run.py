#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the flit KV store.

    python3 perfbench/run.py --workload kv-a-1m --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (the flit library, the
shipped flit_server and the two generator programs) into .bench_build,
runs one workload, checks every result and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones and writes the spans and
a per-layer summary to .bench_build/trace/. See perfbench/README.md.
"""
import argparse
import contextlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Store images are memfds (shared memory, like a tmpfs file), so set-up and
# recovery time the program rather than a disk, and nothing is written
# outside the checkout.
SETUPS = 3      # set-ups per run; setup_s is their median
RECOVERIES = 7  # dirty reopens per run; recovery_s is their median
PWB_NS = 90  # the simulated pwb delay every flit bench uses
VALUE_BYTES = 100

WORKLOADS = {
    "kv-a-1m": {"kind": "kv", "mode": "kv-a", "layout": "hashed",
                "keys": 1_000_000, "warmup": 3.0},
    "scan-e-1m": {"kind": "kv", "mode": "scan-e", "layout": "ordered",
                  "keys": 1_000_000, "warmup": 1.0},
    "wire-b-1m": {"kind": "wire", "layout": "hashed", "keys": 1_000_000,
                  "warmup": 2.0},
}

END_TO_END = {
    "throughput_ops": "1/s", "p50_us": "us", "p99_us": "us",
    "pwbs_per_op": "count", "pfences_per_op": "count", "setup_s": "s",
    "recovery_s": "s", "space_amp": "ratio", "peak_rss_mb": "MB",
}

# Per-layer metrics. A workload that makes no call of a kind reports 0
# for it (kv-a has no scans, the in-process workloads no network, and
# the server's kv/pmem/recl internals are not visible to the generator).
PER_LAYER = {
    "kv.get.p50_us": "us", "kv.put.p50_us": "us", "kv.put.p99_us": "us",
    "kv.scan.p50_us": "us", "kv.scan.keys_per_call": "count",
    "kv.get.self_us": "us", "kv.put.self_us": "us", "kv.scan.self_us": "us",
    "kv.open_clean_s": "s",
    "pmem.put.pwbs": "count", "pmem.put.pfences": "count",
    "pmem.get.pfences": "count", "pmem.scan.pfences": "count",
    "pmem.empty_pfences_per_op": "count", "pmem.persist_share": "ratio",
    "pmem.pool_bytes_per_op": "B",
    "recl.limbo_peak": "count", "recl.epochs_per_s": "1/s",
    "net.server_cpu_us_per_op": "us", "net.batched_share": "ratio",
    "net.round_send_us": "us", "net.round_wait_us": "us",
    "net.client_cpu_us_per_op": "us",
    "trace.overhead": "ratio",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "bench" / "flit_server.cpp").is_file():
        raise SystemExit("perfbench: flit sources (src/, bench/) not found "
                         f"next to {HERE.name}/")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(f"{what} printed no result")
    return json.loads(lines[-1])


@contextlib.contextmanager
def pinned(cpus):
    """Children spawned inside inherit this CPU set (no preexec_fn, so
    subprocess keeps its fast spawn path)."""
    prev = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus or prev)
    try:
        yield
    finally:
        os.sched_setaffinity(0, prev)


def run_prog(argv, what, fds=(), cpus=None):
    """Run a generator program to completion; returns its JSON line."""
    with pinned(cpus):
        p = subprocess.run([str(a) for a in argv], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, pass_fds=fds)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise RuntimeError(f"{what} exited with {p.returncode}: "
                           f"{p.stderr.strip()}")
    return last_json(p.stdout, what)


class Image:
    """A store image in a memfd, addressed by child processes through
    /proc/self/fd (the descriptor is inherited under the same number)."""

    def __init__(self, name):
        self.fd = os.memfd_create(name, 0)
        self.path = f"/proc/self/fd/{self.fd}"

    def reset(self):
        os.ftruncate(self.fd, 0)

    def allocated_bytes(self):
        return os.fstat(self.fd).st_blocks * 512

    def close(self):
        os.close(self.fd)


def recover(image, layout, keys, sample, clean_too, pwb_ns):
    argv = [BUILD / "perfbench_kv", "recover", f"--layout={layout}",
            f"--image={image.path}", f"--keys={keys}", f"--sample={sample}",
            f"--pwb-ns={pwb_ns}"]
    if clean_too:
        argv.append("--clean-too=1")
    # The image must map at the address it was written at (FileRegion's
    # fixed-address remap). Now and then address-space randomization puts
    # something of the fresh process there and the open fails with EEXIST
    # before touching the image; a new process gets a new layout.
    for attempt in range(3):
        try:
            return run_prog(argv, "recover", fds=(image.fd,))
        except RuntimeError as e:
            if "mmap (File exists)" not in str(e) or attempt == 2:
                raise
            log("recorded image address taken in the new process; retrying")


def run_kv(wl, args, image, trace_prefix, sample):
    argv = [BUILD / "perfbench_kv", "run", f"--workload={wl['mode']}",
            f"--image={image.path}", f"--keys={wl['keys']}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}", f"--warmup={wl['warmup']}",
            f"--setups={SETUPS}", f"--trace={args.trace}",
            f"--sample-out={sample}", f"--pwb-ns={args.pwb_ns}"]
    if args.trace:
        argv.append(f"--trace-out={trace_prefix}")
    res = run_prog(argv, "perfbench_kv run", fds=(image.fd,))
    res["setup_samples"] = res.pop("setup_s")
    return res, [res]


def start_server(image, keys, cpus):
    argv = [BUILD / "flit_server", "--workers=1", "--layout=hashed",
            f"--keys={keys}", f"--file={image.path}", "--port=0"]
    with pinned(cpus):
        srv = subprocess.Popen([str(a) for a in argv], stdout=subprocess.PIPE,
                               text=True, pass_fds=(image.fd,))
    line = srv.stdout.readline()
    m = re.search(r"listening on [^:]+:(\d+)", line)
    if not m:
        stop(srv)
        raise RuntimeError(f"flit_server did not start: {line!r}")
    return srv, int(m.group(1))


def stop(srv):
    srv.kill()  # SIGKILL: the image is left dirty, as after a crash
    srv.wait()
    srv.stdout.close()


def run_wire(wl, args, image, trace_prefix, sample):
    # Disjoint CPUs: the server (one busy worker) on the first, the
    # generator's connection threads on the others.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = set(cpus[:1])
    gen_cpus = set(cpus[1:]) or server_cpus
    gen = BUILD / "perfbench_wire"
    setup_samples, parts = [], []
    srv = None
    try:
        for _ in range(SETUPS):
            if srv is not None:
                stop(srv)
            image.reset()
            t0 = time.perf_counter()
            srv, port = start_server(image, wl["keys"], server_cpus)
            parts.append(run_prog([gen, "load", f"--port={port}",
                                   f"--keys={wl['keys']}"],
                                  "perfbench_wire load", cpus=gen_cpus))
            setup_samples.append(time.perf_counter() - t0)
        argv = [gen, "run", f"--port={port}", f"--server-pid={srv.pid}",
                f"--keys={wl['keys']}", f"--seed={args.seed}",
                f"--seconds={args.seconds}", f"--warmup={wl['warmup']}",
                f"--trace={args.trace}", f"--sample-out={sample}"]
        if args.trace:
            argv.append(f"--trace-out={trace_prefix}")
        res = run_prog(argv, "perfbench_wire run", cpus=gen_cpus)
    finally:
        if srv is not None:
            stop(srv)
    res["setup_samples"] = setup_samples
    return res, parts + [res]


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pwb-ns", type=int, default=PWB_NS,
                    help="simulated pwb delay, in-process workloads only "
                         "(sensitivity check)")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    build()
    stem = f"{args.workload}-seed{args.seed}"
    trace_prefix = BUILD / "trace" / stem
    if args.trace:
        trace_prefix.parent.mkdir(exist_ok=True)
    sample = BUILD / f"{stem}.sample"
    image = Image(f"perfbench-{args.workload}")
    try:
        runner = run_kv if wl["kind"] == "kv" else run_wire
        res, parts = runner(wl, args, image, trace_prefix, sample)
        live = res["live_keys"]
        space_amp = image.allocated_bytes() / (live * (8 + VALUE_BYTES))
        # The last reopen of a trace run also times a clean close + open.
        pwb_ns = args.pwb_ns if wl["kind"] == "kv" else PWB_NS
        recs = [recover(image, wl["layout"], live, sample,
                        args.trace and i == RECOVERIES - 1, pwb_ns)
                for i in range(RECOVERIES)]
        parts += recs
    finally:
        image.close()
    sample.unlink(missing_ok=True)

    log(f"setup samples {res['setup_samples']}, recovery samples "
        f"{[r['open_s'] for r in recs]}")
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    res["setup_s"] = statistics.median(res["setup_samples"])
    res["recovery_s"] = statistics.median(r["open_s"] for r in recs)
    res["space_amp"] = space_amp
    if args.trace:
        res["kv.open_clean_s"] = recs[-1]["open_clean_s"]
        metrics = {name: metric(res.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}
        summary = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "per_layer": metrics,
                   "spans": str(trace_prefix) + ".spans.csv"}
        Path(str(trace_prefix) + ".summary.json").write_text(
            json.dumps(summary, indent=1) + "\n")
    else:
        metrics = {name: metric(res[name], unit)
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(2)

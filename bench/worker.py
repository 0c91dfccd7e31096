"""One workload process: set-up, a reference cycle, the timed closed loop
and its output checks, and a JSON result as the last line of stdout.

run.py starts it with capmac on PYTHONPATH and BLAS pinned to one thread.
Set-up is timed from --t0, the monotonic clock reading taken by run.py
just before it started this interpreter; with --setup-only the worker
reports that time and exits.

After set-up the worker runs every op of one cycle once, untimed. This
warms the process and gives each op key its reference output, which
every timed op with that key must reproduce. The timed loop then runs
whole cycles until --seconds have passed. Each op of a cycle writes its
files to the same directory in every cycle. After each cycle the worker
checks the cycle's ops and truncates their files to empty, so that a
stale file cannot pass the next check. Files are thus rewritten, not
created and deleted: on the ext4 host this was written on, creating and
deleting thousands of files slowed file creation run after run by up to
40 %. Each op's time is rescaled by the host-speed calibrations taken
just before and after it (hostspeed.py).

With --trace 1, cycles alternate untraced and traced, starting untraced
and ending on a traced one. The traced counts then cover identical
cycles, and the two kinds of round give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import tracing
import workloads
from workloads import Record


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _files_under(path: Path) -> list[Path]:
    return [f for f in path.rglob("*") if f.is_file()] if path.is_dir() else []


def _per_layer(tracer, records, rounds, setup_counts, traced_cycles):
    """Per traced op: calls and self ms of each function, and the counts."""
    traced = [r for r in records if r.traced]
    n = len(traced)
    kinds = {k: v for k, v in tracer.per_kind().items() if k != "setup"}
    out = {}
    for name in tracing.FUNCTIONS:
        calls = sum(v.get(name, (0, 0))[0] for v in kinds.values())
        self_ns = sum(v.get(name, (0, 0))[1] for v in kinds.values())
        out[f"{name}.calls"] = calls / n
        out[f"{name}.self_ms"] = self_ns / n / 1e6
    counts = tracer.counts
    out[tracing.SAMPLES] = counts[tracing.SAMPLES] / n
    out[tracing.MAC_UNITS] = counts[tracing.MAC_UNITS] / n
    # Set-up plus one cycle; every traced cycle draws the same noise.
    drawn = setup_counts[tracing.NOISE_DRAWN] + counts[tracing.NOISE_DRAWN] // traced_cycles
    clamped = (setup_counts[tracing.NOISE_CLAMPED]
               + counts[tracing.NOISE_CLAMPED] // traced_cycles)
    out["device.apply_noise.clamped_frac"] = clamped / drawn if drawn else 0.0
    out["cli.artifact_bytes"] = sum(r.bytes for r in traced) / n
    out["trace.overhead_frac"] = (
        statistics.median(s for t, s in rounds if t)
        / statistics.median(s for t, s in rounds if not t) - 1.0)

    # Share of each kind's traced op time spent in each layer's own code.
    shares = {}
    for kind, stats in kinds.items():
        op_ns = sum(r.seconds for r in traced if r.op.kind == kind) * 1e9
        by_layer = {}
        for name, (_, self_ns) in stats.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + self_ns / op_ns
        shares[kind] = by_layer
    return out, shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for op outputs")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process started")
    args = ap.parse_args(argv)

    out = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.on = True
    workload.setup()
    setup_s = time.monotonic() - args.t0
    setup_factor = hostspeed.speed_factor()
    if tracer:
        tracer.on = False
        setup_counts = tracer.counts.copy()
        tracer.counts.clear()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}))
        return 0

    def run(op, dest, traced=False) -> Record:
        t0 = perf_counter()
        try:
            value, error = workload.run(op, dest), None
        except Exception:
            value, error = None, traceback.format_exc(limit=4)
        return Record(op, t0, perf_counter() - t0, dest, value, error, traced)

    cycle = workload.cycle()
    refs = {}
    for i, op in enumerate(op for ops in cycle for op in ops):
        if op.key not in refs:
            refs[op.key] = run(op, out / "ref" / f"{i:04d}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    clock = hostspeed.HostClock()
    records: list[Record] = []
    rounds: list[tuple] = []     # (traced, first record, op count)
    cycles = 0
    clock.sample()
    start = perf_counter()
    while True:
        traced = tracer is not None and cycles % 2 == 1
        done: list[Record] = []
        for ops in cycle:
            rounds.append((traced, len(records) + len(done), len(ops)))
            for op in ops:
                if traced:
                    tracer.op, tracer.kind, tracer.on = len(records) + len(done), op.kind, True
                done.append(run(op, out / f"slot{len(done):03d}", traced))
                if traced:
                    tracer.on = False
                clock.maybe_sample()
        workload.check(done, refs)
        for rec in done:
            for f in _files_under(rec.out):
                rec.bytes += f.stat().st_size
                os.truncate(f, 0)
            rec.value = None
        records += done
        cycles += 1
        if perf_counter() - start >= args.seconds and (tracer is None or cycles % 2 == 0):
            break
    loop_s = perf_counter() - start
    clock.sample()

    for rec in records:
        rec.norm_seconds = rec.seconds * clock.factor(rec.start, rec.start + rec.seconds)
    # A round's time is the sum of its ops' times, which leaves out the
    # calibrations between them.
    normalized = [(traced, sum(r.norm_seconds for r in records[first:first + n]))
                  for traced, first, n in rounds]

    failed = [r for r in records if r.error is not None]
    untraced = [s for t, s in normalized if not t]
    result = {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "attempted": len(records),
        "failed": len(failed),
        "errors": sorted({r.error for r in failed})[:3],
        "cycles": cycles,
        "rounds": len(untraced),
        "loop_s": loop_s,
        "round_ms": statistics.median(untraced) * 1e3,
        "measured_round_ms": statistics.median(
            sum(r.seconds for r in records[first:first + n])
            for traced, first, n in rounds if not traced) * 1e3,
        "host_speed": statistics.median(hostspeed.REF_CAL_S / c for c in clock.cals),
        "peak_rss_mb": peak_rss_mb,
        "named": workload.named_metrics(records, refs),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if tracer:
        result["per_layer"], result["layer_share"] = _per_layer(
            tracer, records, normalized, setup_counts, cycles // 2)
        result["absent"] = tracer.absent
        tracer.write_spans(out.parent / f"{args.workload}.spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

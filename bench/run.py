"""capmac benchmark: the `train`, `readout` and `evaluate` workloads.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Each workload runs in its own fresh interpreter (bench/worker.py) with one
client in a closed loop and BLAS pinned to one thread. Set-up is timed in
that interpreter from its start, and also in SETUP_REPEATS set-up-only
interpreters; `setup_s` is the median. With --trace 0 the last line of
stdout is the JSON result with the end-to-end metrics of BENCHMARK.json;
with --trace 1 it carries the per-layer metrics of a traced run instead.
The lines before it name every metric of the workload with its unit.
Everything the runs write goes under .bench_out/. See bench/SPEC.md for the
workloads, the calls they make and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("train", "readout", "evaluate")
SETUP_REPEATS = 9
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; its last stdout line is a JSON object."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), text=True,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish in {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited {done.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out)]
    setups = []
    if not trace:
        setups = [_spawn(args + ["--setup-only"], deadline)
                  for _ in range(SETUP_REPEATS)]
    result = _spawn(args, deadline)
    setups.append(result)
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  setup_samples=[x["setup_s"] for x in setups],
                  setup_factors=[x["setup_factor"] for x in setups])
    result["machine"]["commit"] = _git_commit()
    result["end_to_end"] = {
        "setup_s": (statistics.median(x["setup_s"] * x["setup_factor"]
                                      for x in setups), "s"),
        "round_ms": (result["round_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_frac": (result["failed"] / result["attempted"], "fraction"),
    }
    (OUT / f"{name}.trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict, spec: dict) -> dict:
    """Print every metric of one run by name with its unit; return the
    JSON result of the run."""
    m = result["machine"]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} ops in {result['cycles']} cycles, "
          f"{result['failed']} failed, loop {result['loop_s']:.2f} s")
    print(f"host speed {result['host_speed']:.3f} of the reference host; "
          f"measured median round {result['measured_round_ms']:.4f} ms, "
          f"measured median set-up {statistics.median(result['setup_samples']):.4f} s")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"numpy {m['numpy']}, commit {m['commit']}")
    for error in result["errors"]:
        print("error: " + error.strip().replace("\n", " | "))
    if result["trace"]:
        units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        metrics = {k: {"value": result["per_layer"][k], "unit": u}
                   for k, u in units.items()}
        for kind, shares in result["layer_share"].items():
            print(f"self-time share of a traced {kind} op: " + ", ".join(
                f"{layer} {share:.3f}" for layer, share in sorted(shares.items())))
        if result["absent"]:
            print("absent functions: " + ", ".join(result["absent"]))
    else:
        metrics = {}
        for x in spec["end_to_end"]:
            value, unit = result["end_to_end"][x["name"]]
            if unit != x["unit"]:
                raise BenchError(f"{x['name']} is in {unit}, BENCHMARK.json says {x['unit']}")
            metrics[x["name"]] = {"value": value, "unit": unit}
    shown = {k: {"value": v, "unit": u}
             for k, (v, u) in {**result["end_to_end"], **result["named"]}.items()}
    for name, metric in {**shown, **metrics}.items():
        print(f"  {name:44s} {metric['value']!s:>24} {metric['unit']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed loop length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "capmac" / "__init__.py").is_file():
        print(f"bench: no capmac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        deadline += DEADLINE_S * (len(names) - 1)

    records = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace, deadline)
            records[name] = report(result, spec)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"bench: {name}: {exc!r}", file=sys.stderr)
            return 1
    print(json.dumps(records[names[0]] if len(names) == 1 else records))
    return 0


if __name__ == "__main__":
    sys.exit(main())

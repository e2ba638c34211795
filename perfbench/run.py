"""Benchmark entry point: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload oracle-suite --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured untraced; with
``--trace 1`` the per-layer metrics of a traced run.  Every output is
checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1 when
an output is wrong.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("oracle-suite", "negative-transfer", "neighborhood", "bound-verify")
SETUP_SAMPLES = 5      # set-up is measured in this many fresh processes per run
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (no sources, a worker crashed or hung)."""


def worker(workload: str, seed: int, seconds: float, mode: str) -> tuple[dict, float]:
    """Start worker.py in a fresh interpreter; returns its result and launch time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills the worker and waits for it
        raise BenchError(f"{workload} worker ({mode}) exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_launch


def source_info() -> dict:
    """What was measured besides the worker's versions: machine and sources."""
    files = sorted((ROOT / "src" / "epibound").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = git.stdout.strip() or None
    return {"nproc": os.cpu_count(), "git_sha": sha, "src_sha256": h.hexdigest(),
            "src_lines": lines}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the contract's result object."""
    if trace:
        res, _ = worker(name, seed, seconds, "trace")
        metrics = res["layers"]
        info = {"traced_wall_s": res["traced_wall_s"], "untraced_wall_s": res["wall_s"],
                "spans": res["spans"], "traced_outputs_digest": res["traced_outputs_digest"]}
    else:
        setups = []
        for _ in range(SETUP_SAMPLES):
            k_launch = calibrate.kernel_seconds()
            mode = "run" if len(setups) == SETUP_SAMPLES - 1 else "setup"
            res, t_launch = worker(name, seed, seconds, mode)
            setups.append((res["t_ready"] - t_launch) * calibrate.scale(k_launch, res["kernel_s"]))
        t = res["timings"]
        metrics = {
            "items_per_s": {"value": t["items_per_s"], "unit": "1/s"},
            "request_p50_ms": {"value": t["p50_ms"], "unit": "ms"},
            "request_p99_ms": {"value": t["p99_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        info = {"wall_s": res["wall_s"], "calls": res["calls"], "tail_percentile": 99,
                "tail_samples": t["samples"], "tail_beyond": t["beyond_p99"],
                "raw_items_per_s": t["raw_items_per_s"], "raw_p50_ms": t["raw_p50_ms"],
                "mean_speed_scale": t["mean_scale"], "setup_samples_s": setups}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": res["size"], "versions": res["versions"], **info, **source_info(),
              "outputs_digest": res["outputs_digest"],
              "failed_frac": res["failed"] / res["attempted"], "messages": res["messages"]}
    for msg in res["messages"]:
        print(f"MISMATCH {name}: {msg}", file=sys.stderr)
    line = json.dumps(record, sort_keys=True)
    print(f"run {line}")
    WORK_DIR.mkdir(exist_ok=True)
    with open(WORK_DIR / "runs.jsonl", "a") as fh:
        fh.write(line + "\n")
    for key, m in sorted(metrics.items()):
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_frac {record['failed_frac']:.6g} ratio")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "epibound" / "__init__.py").is_file():
        print(f"perfbench: no epibound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            correct = correct and result["correct"]
            print(json.dumps(result))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
